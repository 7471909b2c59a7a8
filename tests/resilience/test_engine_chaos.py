"""Chaos tests: the experiment engine under injected faults.

The acceptance bar from the paper-reproduction roadmap: a sweep run
under a seeded fault plan (worker crashes, hangs, corrupt blobs,
disk-full) must produce bit-identical metrics to a fault-free serial
run.  Pool-based cases use tiny simulations so a full chaos cycle
stays under a few seconds.
"""

import pytest

from repro.config import fgnvm
from repro.errors import FatalJobError
from repro.obs import ListSink, make_probe
from repro.obs.events import (
    EV_DEGRADED,
    EV_FAULT,
    EV_POOL_REBUILD,
    EV_RETRY,
)
from repro.resilience import (
    CRASH,
    HANG,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.sim import parallel
from repro.sim.parallel import ExperimentJob, ParallelExperimentEngine

REQUESTS = 300
FAST_RETRY = RetryPolicy(base_delay_s=0.0, jitter=0.0)


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


def jobs(n, first_seed=0):
    return [ExperimentJob(small(fgnvm(4, 4)), "sphinx3", REQUESTS, seed)
            for seed in range(first_seed, first_seed + n)]


def clean_summaries(batch):
    return [r.summary()
            for r in ParallelExperimentEngine(workers=1).run_jobs(batch)]


class TestSerialChaos:
    def test_transient_fault_retried_to_identical_result(self):
        batch = jobs(3)
        plan = FaultPlan(faults=(
            FaultSpec(kind=TRANSIENT, job_index=1),
        ))
        engine = ParallelExperimentEngine(
            workers=1, fault_plan=plan, retry=FAST_RETRY
        )
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert got == clean_summaries(batch)
        assert engine.rstats.retries == 1
        assert engine.rstats.faults_injected == 1

    def test_serial_crash_softened_and_retried(self):
        batch = jobs(2)
        plan = FaultPlan(faults=(FaultSpec(kind=CRASH, job_index=0),))
        engine = ParallelExperimentEngine(
            workers=1, fault_plan=plan, retry=FAST_RETRY
        )
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert got == clean_summaries(batch)
        assert engine.rstats.retries == 1

    def test_persistent_fault_becomes_fatal(self):
        # attempts=99 keeps the fault firing on every retry.
        plan = FaultPlan(faults=(
            FaultSpec(kind=TRANSIENT, job_index=0, attempts=99),
        ))
        engine = ParallelExperimentEngine(
            workers=1, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
        )
        with pytest.raises(FatalJobError, match="still failing after 2"):
            engine.run_jobs(jobs(1))
        assert engine.rstats.retries == 1  # one retry, then gave up

    def test_deterministic_error_not_retried(self):
        engine = ParallelExperimentEngine(workers=1, retry=FAST_RETRY)
        bad = ExperimentJob(small(fgnvm(4, 4)), "no-such-benchmark",
                            REQUESTS)
        with pytest.raises(Exception):
            engine.run_jobs([bad])
        assert engine.rstats.retries == 0


@pytest.mark.timeout(120)
class TestPooledChaos:
    def test_crash_and_corrupt_bit_identical(self, tmp_path):
        """The headline acceptance test, sized for CI."""
        batch = jobs(4)
        expected = clean_summaries(batch)
        plan = FaultPlan.seeded(7, len(batch), crashes=1, corrupt=1)
        sink = ListSink()
        engine = ParallelExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            fault_plan=plan,
            retry=FAST_RETRY,
            probe=make_probe(sink),
        )
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert got == expected
        assert engine.rstats.worker_crashes >= 1
        assert engine.rstats.pool_rebuilds >= 1
        # The crash fires at least once and may re-fire if the job is
        # requeued before its own future reports; the corrupt fault
        # fires exactly once.  Either way both kinds were injected.
        assert engine.rstats.faults_injected >= 2
        kinds = {e.kind for e in sink.events}
        assert {EV_FAULT, EV_RETRY, EV_POOL_REBUILD} <= kinds

    def test_hang_times_out_and_retries(self, tmp_path):
        batch = jobs(3)
        expected = clean_summaries(batch)
        plan = FaultPlan(faults=(
            FaultSpec(kind=HANG, job_index=1, seconds=30.0),
        ))
        engine = ParallelExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            fault_plan=plan,
            retry=FAST_RETRY,
            job_timeout_s=1.0,
        )
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert got == expected
        assert engine.rstats.timeouts >= 1
        assert engine.rstats.pool_rebuilds >= 1

    def test_queued_job_clock_starts_when_a_worker_frees(self):
        """Jobs 0 and 1 hang 0.85 s of a 1 s budget while jobs 2 and 3
        wait queued behind them.  A queued job's clock starts when a
        completion frees a worker for it; started at submit, it would
        expire while jobs 2 and 3 run (about 0.4 s each)."""
        batch = jobs(2) + [
            ExperimentJob(small(fgnvm(4, 4)), "sphinx3", 6000, seed)
            for seed in range(2, 6)
        ]
        plan = FaultPlan(faults=(
            FaultSpec(kind=HANG, job_index=0, seconds=0.85),
            FaultSpec(kind=HANG, job_index=1, seconds=0.85),
        ))
        engine = ParallelExperimentEngine(
            workers=2,
            fault_plan=plan,
            retry=FAST_RETRY,
            job_timeout_s=1.0,
        )
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert engine.rstats.timeouts == 0
        assert got == clean_summaries(batch)

    def test_broken_pool_charges_only_running_jobs(self):
        """A dead worker fails every future in flight.  The jobs still
        queued behind the running ones never ran: they count as no
        crash and are charged no retry attempt.  The crashing job is
        charged, also when the pool breaks while the parent is still
        submitting, so its one-shot fault fires once."""
        batch = jobs(6)
        plan = FaultPlan(faults=(FaultSpec(kind=CRASH, job_index=0),))
        engine = ParallelExperimentEngine(
            workers=2, fault_plan=plan, retry=FAST_RETRY
        )
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert got == clean_summaries(batch)
        assert engine.rstats.faults_injected == 1
        assert engine.rstats.pool_rebuilds == 1
        assert 1 <= engine.rstats.worker_crashes <= 2
        assert engine.rstats.retries == engine.rstats.worker_crashes

    def test_degrades_to_serial_past_rebuild_limit(self, tmp_path,
                                                   monkeypatch):
        batch = jobs(3)
        expected = clean_summaries(batch)
        plan = FaultPlan(faults=(FaultSpec(kind=CRASH, job_index=0),))
        sink = ListSink()
        # The first broken pool forces serial.
        monkeypatch.setattr(parallel, "MAX_POOL_REBUILDS", 0)
        engine = ParallelExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            fault_plan=plan,
            retry=FAST_RETRY,
            probe=make_probe(sink),
        )
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert got == expected
        assert engine.rstats.degraded_to_serial == 1
        assert EV_DEGRADED in {e.kind for e in sink.events}

    def test_degraded_engine_stays_in_process(self, monkeypatch):
        """Degradation lasts for the engine's lifetime: a later batch
        builds no pool and sends no job to one."""
        monkeypatch.setattr(parallel, "MAX_POOL_REBUILDS", 0)
        plan = FaultPlan(faults=(FaultSpec(kind=CRASH, job_index=0),))
        engine = ParallelExperimentEngine(
            workers=2, fault_plan=plan, retry=FAST_RETRY
        )
        engine.run_jobs(jobs(4))
        assert engine.rstats.degraded_to_serial == 1
        stats = engine.trace_stats
        # Each job is counted once, by how it first received its trace;
        # a job not yet sent when the pool broke ran in-process.
        assert stats.pooled_jobs + stats.inproc_jobs == 4
        pooled, inproc = stats.pooled_jobs, stats.inproc_jobs

        def no_pool(*args, **kwargs):
            raise AssertionError("a degraded engine built a process pool")

        monkeypatch.setattr(parallel, "_new_pool", no_pool)
        engine.plan = None
        later = jobs(4, first_seed=4)
        got = [r.summary() for r in engine.run_jobs(later)]
        assert got == clean_summaries(later)
        assert stats.pooled_jobs == pooled
        assert stats.inproc_jobs == inproc + 4

    def test_manifest_carries_resilience_counters(self, tmp_path):
        from repro.obs.manifest import read_manifest

        batch = jobs(2)
        plan = FaultPlan(faults=(
            FaultSpec(kind=TRANSIENT, job_index=0),
        ))
        engine = ParallelExperimentEngine(
            workers=1,
            cache_dir=tmp_path / "cache",
            fault_plan=plan,
            retry=FAST_RETRY,
        )
        engine.run_jobs(batch)
        data = read_manifest(engine.write_manifest())
        assert data["resilience"]["retries"] == 1
        assert data["resilience"]["faults_injected"] == 1
        assert data["resilience"]["journal_entries"] == 2
        assert data["interrupted"] is False


class TestFactoryAndValidation:
    def test_bad_job_timeout_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="job_timeout_s"):
            ParallelExperimentEngine(workers=1, job_timeout_s=0)

    def test_plain_batch_unchanged_by_supervision(self, tmp_path):
        """No faults, no plan: results as from an unsupervised run."""
        batch = jobs(3)
        engine = ParallelExperimentEngine(workers=1, cache_dir=tmp_path / "c")
        got = [r.summary() for r in engine.run_jobs(batch)]
        assert got == clean_summaries(batch)
        assert engine.rstats.as_dict() == {
            "retries": 0, "worker_crashes": 0, "timeouts": 0,
            "pool_rebuilds": 0, "degraded_to_serial": 0,
            "faults_injected": 0, "journal_entries": 3,
            "resumed_hits": 0,
        }
