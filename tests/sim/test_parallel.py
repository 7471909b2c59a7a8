"""Unit tests for the parallel experiment engine and its caches."""

import pickle

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.errors import ExperimentError
from repro.sim.experiment import ExperimentCache, run_benchmark
from repro.sim.parallel import (
    BLOB_MAGIC,
    CODE_VERSION,
    QUARANTINE_DIR,
    DiskResultCache,
    ExperimentJob,
    ParallelExperimentEngine,
    ProgressEvent,
    canonical_config,
    config_digest,
    execute_job,
    job_key,
    result_digest,
)

REQUESTS = 300


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


def job(benchmark="sphinx3", requests=REQUESTS, seed=None, config=None):
    return ExperimentJob(
        config if config is not None else small(fgnvm(4, 4)),
        benchmark,
        requests,
        seed,
    )


class TestKeys:
    def test_canonical_config_stable_across_construction(self):
        assert canonical_config(baseline_nvm()) == canonical_config(
            baseline_nvm()
        )
        assert config_digest(fgnvm(8, 2)) == config_digest(fgnvm(8, 2))

    def test_canonical_config_serializes_enums(self):
        text = canonical_config(baseline_nvm())
        assert '"architecture":"baseline"' in text
        assert '"scheduler":"frfcfs"' in text

    def test_key_distinct_across_configs(self):
        assert job_key(job(config=small(fgnvm(4, 4)))) != job_key(
            job(config=small(fgnvm(8, 2)))
        )

    def test_key_distinct_across_trace_parameters(self):
        base = job_key(job())
        assert job_key(job(benchmark="mcf")) != base
        assert job_key(job(requests=REQUESTS + 1)) != base
        assert job_key(job(seed=7)) != base

    def test_key_distinct_across_code_versions(self):
        assert job_key(job(), code_version="other") != job_key(
            job(), code_version=CODE_VERSION
        )

    def test_key_bytes_are_pinned(self):
        """Existing caches stay valid: the key of a fixed job never moves."""
        assert job_key(ExperimentJob(fgnvm(8, 2), "mcf", 2500)) == (
            "72510da174b612a9babe6d64a1fa286cad449c1b3118333efd011e734f284f00"
        )
        assert config_digest(fgnvm(8, 2)) == (
            "5e0eadd19ae5665e2be0bc980fd886fb633446cdb50743cd438017f584536c0a"
        )

    def test_precomputed_canonical_gives_the_same_key(self):
        cfg = small(fgnvm(4, 4))
        assert job_key(job(config=cfg), CODE_VERSION,
                       canonical_config(cfg)) == job_key(job(config=cfg))

    def test_in_place_mutation_between_batches_changes_the_key(self):
        """Configs are mutable: no canonical form outlives one batch."""
        engine = ParallelExperimentEngine(workers=1)
        cfg = small(fgnvm(4, 4))
        engine.run_jobs([job(config=cfg)])
        cfg.cpu.rob_entries += 1
        engine.run_jobs([job(config=cfg)])
        first, second = engine.records
        assert first.key != second.key
        assert first.config_digest != second.config_digest
        assert second.key == job_key(job(config=cfg))
        assert second.config_digest == config_digest(cfg)
        assert engine.stats.executed == 2

    def test_execute_job_matches_run_benchmark(self):
        direct = run_benchmark(small(fgnvm(4, 4)), "sphinx3", REQUESTS)
        via_job = execute_job(job())
        assert via_job.summary() == direct.summary()

    def test_seed_override_changes_trace(self):
        assert execute_job(job(seed=99)).summary() != execute_job(
            job()
        ).summary()


class TestDiskResultCache:
    def test_round_trip(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        result = execute_job(job())
        cache.put("ab" * 32, result)
        loaded = cache.get("ab" * 32)
        assert loaded.summary() == result.summary()
        assert len(cache) == 1
        assert cache.keys() == ["ab" * 32]

    def test_miss_returns_none(self, tmp_path):
        assert DiskResultCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_blob_treated_as_miss_and_removed(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        key = "ef" * 32
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()

    def test_corrupt_blob_quarantined_not_deleted(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        key = "ef" * 32
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        quarantined = list((tmp_path / QUARANTINE_DIR).glob("*.corrupt"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == b"not a pickle"
        assert cache.corrupt_blobs == 1

    def test_blobs_written_framed_with_checksum(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        result = execute_job(job())
        digest = cache.put("ab" * 32, result)
        raw = cache._path("ab" * 32).read_bytes()
        assert raw.startswith(BLOB_MAGIC)
        _payload, expected = result_digest(result)
        assert digest == expected
        assert raw[len(BLOB_MAGIC):len(BLOB_MAGIC) + 64].decode() == digest

    def test_checksum_mismatch_quarantines(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, execute_job(job()))
        path = cache._path(key)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.get(key) is None
        assert cache.corrupt_blobs == 1
        assert not path.exists()

    def test_verify_detects_digest_mismatch(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        key = "ab" * 32
        digest = cache.put(key, execute_job(job()))
        assert cache.verify(key, digest)
        assert not cache.verify(key, "0" * 64)  # quarantines too
        assert cache.get(key) is None

    def test_unframed_blob_quarantined_and_recomputed(self, tmp_path):
        engine = ParallelExperimentEngine(workers=1, cache_dir=tmp_path)
        expected = engine.run_jobs([job()])[0]
        path = engine.disk._path(job_key(job()))
        unframed = pickle.dumps(expected)  # a valid pickle, but no frame
        path.write_bytes(unframed)
        fresh = ParallelExperimentEngine(workers=1, cache_dir=tmp_path)
        assert fresh.run_jobs([job()])[0].summary() == expected.summary()
        assert fresh.stats.executed == 1  # recomputed, not unpickled
        assert fresh.stats.corrupt_blobs == 1
        quarantined = list((tmp_path / QUARANTINE_DIR).glob("*.corrupt"))
        assert [q.read_bytes() for q in quarantined] == [unframed]
        assert path.read_bytes().startswith(BLOB_MAGIC)

    def test_unwritable_cache_dir_rejected_up_front(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(ExperimentError, match="not a writable"):
            DiskResultCache(target)

    def test_quarantine_excluded_from_keys_len_purge(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        cache.put("ab" * 32, execute_job(job()))
        bad = cache._path("cd" * 32)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"junk")
        assert cache.get("cd" * 32) is None  # quarantined
        assert cache.keys() == ["ab" * 32]
        assert len(cache) == 1
        assert cache.purge() == 1
        quarantined = list((tmp_path / QUARANTINE_DIR).glob("*.corrupt"))
        assert len(quarantined) == 1  # purge leaves the evidence

    def test_purge(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        cache.put("ab" * 32, execute_job(job()))
        assert cache.purge() == 1
        assert len(cache) == 0


class TestEngineSerial:
    def test_run_matches_run_benchmark(self):
        engine = ParallelExperimentEngine(workers=1)
        cfg = small(fgnvm(4, 4))
        assert engine.run(cfg, "sphinx3", REQUESTS).summary() == \
            run_benchmark(cfg, "sphinx3", REQUESTS).summary()

    def test_memory_memoisation(self):
        engine = ParallelExperimentEngine(workers=1)
        cfg = small(fgnvm(4, 4))
        first = engine.run(cfg, "sphinx3", REQUESTS)
        second = engine.run(cfg, "sphinx3", REQUESTS)
        assert first is second
        assert engine.stats.executed == 1
        assert engine.stats.memory_hits == 1
        assert len(engine) == 1

    def test_duplicate_jobs_in_one_batch_simulate_once(self):
        engine = ParallelExperimentEngine(workers=1)
        results = engine.run_jobs([job(), job()])
        assert engine.stats.executed == 1
        assert results[0] is results[1]

    def test_results_in_job_order(self):
        engine = ParallelExperimentEngine(workers=1)
        jobs = [job(benchmark="sphinx3"), job(benchmark="mcf")]
        results = engine.run_jobs(jobs)
        assert [r.config.name for r in results] == [
            j.config.name for j in jobs
        ]
        assert results[0].summary() != results[1].summary()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError):
            ParallelExperimentEngine(workers=0)

    def test_duck_types_experiment_cache(self):
        """Everything accepting an ExperimentCache accepts an engine."""
        for attr in ("run", "__len__"):
            assert hasattr(ParallelExperimentEngine(), attr)
            assert hasattr(ExperimentCache(), attr)


class TestEngineDisk:
    def test_disk_hits_survive_new_engine(self, tmp_path):
        cfg = small(fgnvm(4, 4))
        first = ParallelExperimentEngine(workers=1, cache_dir=tmp_path)
        result = first.run(cfg, "sphinx3", REQUESTS)
        assert first.stats.executed == 1

        second = ParallelExperimentEngine(workers=1, cache_dir=tmp_path)
        warm = second.run(cfg, "sphinx3", REQUESTS)
        assert second.stats.executed == 0
        assert second.stats.disk_hits == 1
        assert warm.summary() == result.summary()

    def test_code_version_invalidates_disk_cache(self, tmp_path):
        cfg = small(fgnvm(4, 4))
        ParallelExperimentEngine(workers=1, cache_dir=tmp_path).run(
            cfg, "sphinx3", REQUESTS
        )
        bumped = ParallelExperimentEngine(
            workers=1, cache_dir=tmp_path, code_version="vNext"
        )
        bumped.run(cfg, "sphinx3", REQUESTS)
        assert bumped.stats.executed == 1
        assert bumped.stats.disk_hits == 0

    def test_cached_result_pickle_round_trips_summary(self, tmp_path):
        result = execute_job(job())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.summary() == result.summary()
        assert clone.ipc == result.ipc
        assert clone.energy.total_pj == result.energy.total_pj


class TestProgress:
    def test_progress_events_cover_batch(self):
        events = []
        engine = ParallelExperimentEngine(workers=1, progress=events.append)
        engine.run_jobs([job(benchmark="sphinx3"), job(benchmark="mcf")])
        assert events[0].done == 0 and events[0].total == 2
        assert events[-1].done == 2 and events[-1].total == 2
        assert all(e.elapsed_s >= 0 for e in events)

    def test_eta_semantics(self):
        assert ProgressEvent(0, 4, 1.0, 0).eta_s is None
        assert ProgressEvent(2, 4, 10.0, 0).eta_s == pytest.approx(10.0)
        assert ProgressEvent(4, 4, 10.0, 0).eta_s == 0.0


class TestTelemetry:
    def test_job_records_track_sources(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=1, cache_dir=tmp_path / "cache"
        )
        engine.run_jobs([job()])
        engine.run_jobs([job()])  # memory hit
        fresh = ParallelExperimentEngine(
            workers=1, cache_dir=tmp_path / "cache"
        )
        fresh.run_jobs([job()])  # disk hit
        assert [r.source for r in engine.records] == ["simulated", "memory"]
        assert [r.source for r in fresh.records] == ["disk"]
        simulated = engine.records[0]
        assert simulated.wall_s > 0
        assert simulated.benchmark == "sphinx3"
        assert simulated.requests == REQUESTS
        assert simulated.key == job_key(job())
        assert simulated.config_digest == config_digest(job().config)

    def test_corrupt_blob_counted(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=1, cache_dir=tmp_path / "cache"
        )
        engine.run_jobs([job()])
        blob = next((tmp_path / "cache").glob("*/*.pkl"))
        blob.write_bytes(b"garbage")
        fresh = ParallelExperimentEngine(
            workers=1, cache_dir=tmp_path / "cache"
        )
        fresh.run_jobs([job()])
        assert fresh.disk.corrupt_blobs == 1
        assert fresh.stats.corrupt_blobs == 1
        assert fresh.stats.as_dict()["corrupt_blobs"] == 1
        assert [r.source for r in fresh.records] == ["simulated"]

    def test_manifest_contents(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache"
        )
        engine.run_jobs([job(benchmark="sphinx3"), job(benchmark="mcf")])
        manifest = engine.manifest()
        assert manifest.code_version == CODE_VERSION
        assert manifest.workers == 2
        assert manifest.cache_dir == str(tmp_path / "cache")
        assert manifest.wall_s > 0
        assert manifest.busy_s > 0
        assert manifest.engine["submitted"] == 2
        assert manifest.engine["simulations"] == 2
        assert len(manifest.jobs) == 2
        assert 0.0 < manifest.worker_utilization <= 1.0

    def test_write_manifest_defaults_next_to_cache(self, tmp_path):
        from repro.obs.manifest import read_manifest

        engine = ParallelExperimentEngine(
            workers=1, cache_dir=tmp_path / "cache"
        )
        engine.run_jobs([job()])
        path = engine.write_manifest()
        assert path == tmp_path / "cache" / "run-manifest.json"
        data = read_manifest(path)
        assert data["engine"]["simulations"] == 1
        assert data["jobs"][0]["source"] == "simulated"

    def test_write_manifest_without_cache_needs_path(self, tmp_path):
        engine = ParallelExperimentEngine(workers=1)
        engine.run_jobs([job()])
        assert engine.write_manifest() is None
        path = engine.write_manifest(tmp_path / "manifest.json")
        assert path is not None and path.exists()

    def test_timed_results_identical_to_untimed(self):
        from repro.sim.parallel import _timed_execute_job

        result, wall_s = _timed_execute_job(job())
        assert wall_s > 0
        assert result.summary() == execute_job(job()).summary()
