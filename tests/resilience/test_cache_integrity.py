"""End-to-end cache integrity: torn blobs quarantined, results recomputed."""

from repro.config import fgnvm
from repro.obs import ListSink, make_probe
from repro.obs.events import EV_QUARANTINE
from repro.obs.hub import TelemetryHub
from repro.resilience import (
    DISK_FULL,
    FaultPlan,
    FaultSpec,
    ResilientEngine,
)
from repro.sim.parallel import (
    QUARANTINE_DIR,
    ExperimentJob,
    ParallelExperimentEngine,
)

REQUESTS = 300


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


def job(benchmark="sphinx3", seed=None):
    return ExperimentJob(small(fgnvm(4, 4)), benchmark, REQUESTS, seed)


class TestTruncatedBlobRecovery:
    def test_truncated_blob_quarantined_and_recomputed(self, tmp_path):
        """Regression: a blob torn on disk must never poison a rerun."""
        cache_dir = tmp_path / "cache"
        first = ParallelExperimentEngine(workers=1, cache_dir=cache_dir)
        expected = first.run_jobs([job()])[0].summary()

        blob = next(cache_dir.glob("*/*.pkl"))
        data = blob.read_bytes()
        blob.write_bytes(data[: len(data) // 2])

        fresh = ParallelExperimentEngine(workers=1, cache_dir=cache_dir)
        recomputed = fresh.run_jobs([job()])[0].summary()

        assert recomputed == expected
        assert fresh.stats.executed == 1  # miss, not a poisoned hit
        assert fresh.disk.corrupt_blobs == 1
        assert fresh.stats.corrupt_blobs == 1
        quarantined = list(
            (cache_dir / QUARANTINE_DIR).glob("*.corrupt")
        )
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == data[: len(data) // 2]

    def test_no_temp_files_left_behind(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = ParallelExperimentEngine(workers=1, cache_dir=cache_dir)
        engine.run_jobs([job(), job(benchmark="mcf")])
        leftovers = [p for p in cache_dir.rglob("*")
                     if p.suffix in (".tmp", ".probe")]
        assert leftovers == []


class TestDiskFullSurvival:
    def test_injected_disk_full_does_not_lose_the_result(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind=DISK_FULL, job_index=0),
        ))
        engine = ResilientEngine(
            workers=1, cache_dir=tmp_path / "cache", fault_plan=plan
        )
        baseline = ParallelExperimentEngine(workers=1)
        expected = [r.summary() for r in baseline.run_jobs(
            [job(), job(benchmark="mcf")]
        )]
        got = [r.summary() for r in engine.run_jobs(
            [job(), job(benchmark="mcf")]
        )]
        assert got == expected
        assert engine.disk.put_errors == 1
        assert engine.rstats.faults_injected == 1
        # Only the second job made it to disk; the first stayed
        # in-memory and is simply recomputed next run.
        assert len(engine.disk) == 1
        assert engine.rstats.journal_entries == 1


class TestTraceBlobQuarantine:
    def test_corrupt_trace_blob_counted_announced_and_regenerated(
            self, tmp_path):
        cache_dir = tmp_path / "cache"
        ParallelExperimentEngine(workers=1, cache_dir=cache_dir).run_jobs(
            [job()]
        )
        (blob,) = (cache_dir / "traces").glob("*/*.ptrace")
        data = bytearray(blob.read_bytes())
        data[-1] ^= 0xFF
        blob.write_bytes(bytes(data))

        # Another config on the same trace: the result misses, so the
        # engine reads the corrupt trace blob.
        other = ExperimentJob(small(fgnvm(8, 2)), "sphinx3", REQUESTS)
        sink = ListSink()
        hub = TelemetryHub()
        engine = ResilientEngine(
            workers=1, cache_dir=cache_dir, probe=make_probe(sink),
            telemetry=hub,
        )
        got = engine.run_jobs([other])[0].summary()
        hub.close()

        expected = ParallelExperimentEngine(workers=1).run_jobs([other])
        assert got == expected[0].summary()
        assert engine.manifest().engine["corrupt_blobs"] == 1
        quarantines = [e for e in sink.events if e.kind == EV_QUARANTINE]
        assert len(quarantines) == 1
        assert hub.fleet.quarantines == 1
        quarantined = list(
            (cache_dir / "traces" / QUARANTINE_DIR).glob("*.corrupt")
        )
        assert [q.read_bytes() for q in quarantined] == [bytes(data)]
