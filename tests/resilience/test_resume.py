"""Resume equivalence: an interrupted sweep finishes with zero re-work.

The satellite acceptance test from the roadmap: kill a sweep after K
jobs, resume it, and prove the final results bit-identical to an
uninterrupted run with zero re-simulation of the checkpointed jobs.
"""

import pytest

from repro.config import fgnvm
from repro.errors import ExperimentError
from repro.obs.manifest import read_manifest
from repro.resilience import (
    CORRUPT,
    INTERRUPT,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    mangle_blob,
)
from repro.sim.parallel import ExperimentJob, ParallelExperimentEngine, job_key

REQUESTS = 300
FAST_RETRY = RetryPolicy(base_delay_s=0.0, jitter=0.0)


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


def jobs(n):
    return [ExperimentJob(small(fgnvm(4, 4)), "sphinx3", REQUESTS, seed)
            for seed in range(n)]


def clean_summaries(batch):
    return [r.summary()
            for r in ParallelExperimentEngine(workers=1).run_jobs(batch)]


def interrupted_run(cache_dir, batch, after_index, workers=1):
    """Run a sweep that Ctrl-C's itself after ``after_index`` checkpoints."""
    plan = FaultPlan(faults=(
        FaultSpec(kind=INTERRUPT, job_index=after_index),
    ))
    engine = ParallelExperimentEngine(
        workers=workers, cache_dir=cache_dir, fault_plan=plan,
        retry=FAST_RETRY,
    )
    with pytest.raises(KeyboardInterrupt):
        engine.run_jobs(batch)
    return engine


@pytest.mark.timeout(120)
class TestResumeEquivalence:
    def test_serial_interrupt_then_resume_zero_rework(self, tmp_path):
        cache_dir = tmp_path / "cache"
        batch = jobs(5)
        expected = clean_summaries(batch)

        first = interrupted_run(cache_dir, batch, after_index=2)
        # Serial order is deterministic: jobs 0..2 checkpointed.
        assert first.rstats.journal_entries == 3
        assert first.rstats.interrupted

        second = ParallelExperimentEngine(
            workers=1, cache_dir=cache_dir, resume=True
        )
        assert second.resumable_jobs == 3
        got = [r.summary() for r in second.run_jobs(batch)]

        assert got == expected
        assert second.stats.executed == 2  # only the unfinished tail
        assert second.stats.disk_hits == 3
        assert second.rstats.resumed_hits == 3
        sources = [r.source for r in second.records]
        assert sources.count("disk") == 3
        assert sources.count("simulated") == 2

    def test_pooled_interrupt_then_resume(self, tmp_path):
        cache_dir = tmp_path / "cache"
        batch = jobs(5)
        expected = clean_summaries(batch)

        interrupted_run(cache_dir, batch, after_index=1, workers=2)

        second = ParallelExperimentEngine(
            workers=1, cache_dir=cache_dir, resume=True
        )
        checkpointed = second.resumable_jobs
        assert checkpointed >= 1  # at least the interrupting job
        got = [r.summary() for r in second.run_jobs(batch)]
        assert got == expected
        # Exactly the non-checkpointed jobs were re-simulated.
        assert second.stats.executed == len(batch) - checkpointed
        assert second.rstats.resumed_hits == checkpointed

    def test_partial_manifest_flushed_on_interrupt(self, tmp_path):
        cache_dir = tmp_path / "cache"
        interrupted_run(cache_dir, jobs(4), after_index=1)
        data = read_manifest(cache_dir / "run-manifest.json")
        assert data["interrupted"] is True
        assert data["resilience"]["journal_entries"] == 2
        assert data["resilience"]["faults_injected"] == 0
        assert len(data["jobs"]) == 2  # the completed prefix only

    def test_resume_recomputes_corrupted_checkpoint(self, tmp_path):
        cache_dir = tmp_path / "cache"
        batch = jobs(4)
        expected = clean_summaries(batch)
        first = interrupted_run(cache_dir, batch, after_index=2)

        # Rot one checkpointed blob behind the journal's back.
        victim = job_key(batch[1])
        mangle_blob(first.disk._path(victim), CORRUPT)

        second = ParallelExperimentEngine(
            workers=1, cache_dir=cache_dir, resume=True
        )
        # Verification caught the rot: two intact checkpoints remain.
        assert second.resumable_jobs == 2
        assert second.disk.corrupt_blobs == 1
        got = [r.summary() for r in second.run_jobs(batch)]
        assert got == expected
        assert second.stats.executed == 2  # corrupted + never-run

    def test_resume_journal_supersedes_after_recompute(self, tmp_path):
        """A recomputed job re-journals, so a third run does no work."""
        cache_dir = tmp_path / "cache"
        batch = jobs(3)
        first = interrupted_run(cache_dir, batch, after_index=1)
        mangle_blob(first.disk._path(job_key(batch[0])), CORRUPT)

        second = ParallelExperimentEngine(
            workers=1, cache_dir=cache_dir, resume=True
        )
        second.run_jobs(batch)

        third = ParallelExperimentEngine(
            workers=1, cache_dir=cache_dir, resume=True
        )
        assert third.resumable_jobs == 3
        third.run_jobs(batch)
        assert third.stats.executed == 0

    def test_resume_without_cache_rejected(self):
        with pytest.raises(ExperimentError, match="persistent cache"):
            ParallelExperimentEngine(workers=1, resume=True)
