"""TelemetryHub folding, snapshots, dashboard, drift and replay."""

import json

import pytest

from repro.config import fgnvm
from repro.obs.drift import DriftDetector, DriftEnvelope
from repro.obs.events import (
    EV_DRIFT,
    EV_FAULT,
    EV_RETRY,
    NULL_PROBE,
    ListSink,
    make_probe,
)
from repro.obs.hub import (
    RING,
    SNAPSHOT_SCHEMA,
    TelemetryHub,
    render_dashboard,
)
from repro.obs.stream import (
    FR_DRIFT,
    FR_ENGINE,
    TelemetryChannel,
    TelemetryFrame,
    activate,
    streamed_simulate,
)
from repro.obs.manifest import RunManifest, worker_utilization
from repro.resilience import TRANSIENT, FaultPlan, FaultSpec, RetryPolicy
from repro.sim.parallel import ExperimentJob, ParallelExperimentEngine
from repro.workloads.synthetic import multi_stream_kernel

FAST_RETRY = RetryPolicy(base_delay_s=0.0, jitter=0.0)


def small(cfg, epoch_cycles=500):
    cfg.org.rows_per_bank = 512
    cfg.sim.epoch_cycles = epoch_cycles
    return cfg


def trace():
    return multi_stream_kernel(
        300, streams=4, gap=6, write_fraction=0.25, seed=5,
    )


def engine_payload(done=1, total=1, elapsed_s=1.0, **blocks):
    """An ``engine`` frame payload as the experiment engine builds it."""
    payload = {"jobs_total": total, "jobs_done": done, "cache_hits": 0,
               "elapsed_s": elapsed_s, "eta_s": None, "workers": 1}
    payload.update(blocks)
    return payload


def engine_jobs(n):
    return [ExperimentJob(small(fgnvm(4, 4)), "sphinx3", 300, seed)
            for seed in range(n)]


def run_one_job(hub, epoch_cycles=500):
    """Stream one real job through the hub's channel and fold it."""
    channel = hub.start(pooled=False)
    job = ExperimentJob(small(fgnvm(4, 4), epoch_cycles), "mcf", 300)
    result = streamed_simulate(channel, job, trace())
    hub.pump()
    return job, result


@pytest.fixture(autouse=True)
def no_active_channel():
    previous = activate(None)
    yield
    activate(previous)


class TestFolding:
    def test_job_lifecycle_folds_into_view(self):
        hub = TelemetryHub()
        _, result = run_one_job(hub)
        assert len(hub.jobs) == 1
        view = next(iter(hub.jobs.values()))
        assert view.state == "done"
        assert view.benchmark == "mcf"
        assert view.cycles == result.cycles
        assert view.epochs == len(result.epochs)
        assert list(view.ipc_series) == [
            round(s.ipc(500, result.config.cpu.cpu_cycles_per_mem_cycle(
                result.config.timing.tck_ns)), 6)
            for s in result.epochs
        ][-RING:]
        hub.close()

    def test_engine_frames_update_fleet(self):
        hub = TelemetryHub()
        hub.fold(TelemetryFrame(
            kind=FR_ENGINE, seq=0, worker=1, t=0.0,
            payload={"jobs_total": 8, "jobs_done": 3, "cache_hits": 2,
                     "elapsed_s": 4.0, "eta_s": 6.5, "workers": 2,
                     "engine": {"corrupt_blobs": 1},
                     "resilience": {"retries": 3, "faults_injected": 2,
                                    "pool_rebuilds": 1,
                                    "degraded_to_serial": 0},
                     "trace": {"trace_cache_hits": 4, "packed_bytes": 900,
                               "pooled_jobs": 5}},
        ))
        fleet = hub.fleet.as_dict()
        assert fleet["jobs_total"] == 8
        assert fleet["jobs_done"] == 3
        assert fleet["cache_hits"] == 2
        assert fleet["eta_s"] == 6.5
        assert fleet["workers"] == 2
        assert (fleet["retries"], fleet["faults"], fleet["pool_rebuilds"],
                fleet["quarantines"], fleet["degraded"]) == (3, 2, 1, 1, 0)
        assert (fleet["trace_cache_hits"], fleet["trace_packed_bytes"],
                fleet["pooled_jobs"]) == (4, 900, 5)

    def test_note_progress_is_an_engine_frame(self):
        hub = TelemetryHub()
        hub.note_progress(dict(engine_payload(done=2, total=10),
                               cache_hits=1, workers=4))
        assert hub.fleet.jobs_done == 2
        assert hub.fleet.jobs_total == 10
        assert hub.fleet.cache_hits == 1
        assert hub.fleet.workers == 4
        assert hub.frames_seen == 1

    def test_ring_buffer_bounds_series_memory(self):
        hub = TelemetryHub()
        for epoch in range(RING + 5):
            hub.fold(TelemetryFrame(
                kind="epoch", seq=epoch, job="j", worker=1, t=0.0,
                payload={"epoch": epoch, "ipc": float(epoch),
                         "hit_rate": 0.5, "pending": 0},
            ))
        view = hub.jobs["j"]
        assert view.epochs == RING + 5    # the count keeps the truth
        assert list(view.ipc_series) == [float(e)
                                         for e in range(5, RING + 5)]

    def test_close_is_idempotent(self):
        hub = TelemetryHub()
        run_one_job(hub)
        hub.close()
        hub.close()


class TestDroppedAccounting:
    def test_tiny_capacity_drops_surface_in_hub(self):
        """Satellite guard: drops are counted and surfaced, never hidden."""
        hub = TelemetryHub()
        hub.channel = TelemetryChannel.serial(capacity=3)
        job = ExperimentJob(small(fgnvm(4, 4)), "mcf", 300)
        streamed_simulate(hub.channel, job, trace())
        hub.pump()
        hub.close()
        assert hub.dropped_frames > 0
        assert hub.manifest_block()["dropped_frames"] == hub.dropped_frames
        assert hub.snapshot()["dropped_frames"] == hub.dropped_frames

    def test_per_pid_counts_never_double(self):
        hub = TelemetryHub()
        # Two job_end frames from the same worker report a cumulative
        # count; the hub must keep the max, not the sum.
        for seq, dropped in enumerate((3, 7)):
            hub.fold(TelemetryFrame(
                kind="job_end", seq=seq, job=f"j{seq}", worker=99, t=0.0,
                payload={"wall_s": 0.1, "cycles": 1, "instructions": 1,
                         "ipc": 1.0, "dropped_frames": dropped},
            ))
        assert hub.dropped_frames == 7

    def test_no_drops_reads_zero(self):
        hub = TelemetryHub()
        run_one_job(hub)
        hub.close()
        assert hub.dropped_frames == 0


class TestProbeAdoption:
    """The engine keeps its caller's probe; the hub counts harness
    events from the engine frames and uses the probe only for drift."""

    def test_harness_events_fold_into_fleet(self):
        hub = TelemetryHub()
        plan = FaultPlan(faults=(FaultSpec(kind=TRANSIENT, job_index=1),))
        engine = ParallelExperimentEngine(
            workers=1, fault_plan=plan, retry=FAST_RETRY, telemetry=hub)
        engine.run_jobs(engine_jobs(2))
        assert hub.fleet.retries == engine.rstats.retries == 1
        assert hub.fleet.faults == engine.rstats.faults_injected == 1
        assert hub.fleet.jobs_done == hub.fleet.jobs_total == 2
        hub.close()

    def test_original_sink_still_sees_events(self):
        hub = TelemetryHub()
        sink = ListSink()
        plan = FaultPlan(faults=(FaultSpec(kind=TRANSIENT, job_index=0),))
        engine = ParallelExperimentEngine(
            workers=1, fault_plan=plan, retry=FAST_RETRY,
            probe=make_probe(sink), telemetry=hub)
        engine.run_jobs(engine_jobs(1))
        assert engine.probe is hub.probe
        assert [e.kind for e in sink.events] == [EV_FAULT, EV_RETRY]
        hub.close()

    def storm_spool(self, tmp_path, sink):
        spool = tmp_path / "telemetry.jsonl"
        hub = TelemetryHub(spool_path=spool,
                           drift=DriftDetector(retry_storm_threshold=3))
        hub.probe = make_probe(sink)
        for retries in (1, 4, 5):
            hub.note_progress(engine_payload(
                resilience={"retries": retries}))
        hub.close()
        return spool, hub

    def test_retry_storm_emits_drift_event(self, tmp_path):
        sink = ListSink()
        _, hub = self.storm_spool(tmp_path, sink)
        drift_events = [e for e in sink.events if e.kind == EV_DRIFT]
        assert len(drift_events) == 1
        assert drift_events[0].service == "retry_storm"
        assert len(hub.drift.findings) == 1

    def test_replay_redetects_retry_storm_once(self, tmp_path):
        spool, hub = self.storm_spool(tmp_path, ListSink())
        replayed = TelemetryHub.replay(
            spool, drift=DriftDetector(retry_storm_threshold=3))
        assert [f.kind for f in replayed.drift.findings] == ["retry_storm"]
        # Without the spooled drift frame the engine frames alone
        # re-detect it.
        lines = spool.read_text(encoding="utf-8").splitlines()
        bare = tmp_path / "bare.jsonl"
        bare.write_text("".join(
            line + "\n" for line in lines
            if json.loads(line)["kind"] != FR_DRIFT), encoding="utf-8")
        replayed = TelemetryHub.replay(
            bare, drift=DriftDetector(retry_storm_threshold=3))
        assert [f.kind for f in replayed.drift.findings] == ["retry_storm"]
        assert replayed.fleet.retries == hub.fleet.retries == 5

    def test_adopting_null_probe_still_counts(self):
        hub = TelemetryHub()
        plan = FaultPlan(faults=(FaultSpec(kind=TRANSIENT, job_index=0),))
        engine = ParallelExperimentEngine(
            workers=1, fault_plan=plan, retry=FAST_RETRY, telemetry=hub)
        engine.run_jobs(engine_jobs(1))
        assert hub.probe is NULL_PROBE
        assert hub.fleet.faults == 1
        hub.close()


@pytest.mark.timeout(120)
class TestOneCounterPath:
    def test_live_replay_and_manifest_agree(self, tmp_path):
        """Pooled batch under faults: the live hub, a replay of its
        spool and the run manifest read the same counters."""
        spool = tmp_path / "telemetry.jsonl"
        hub = TelemetryHub(spool_path=spool)
        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache", retry=FAST_RETRY,
            fault_plan=FaultPlan.seeded(0, 4, transients=1, corrupt=1),
            telemetry=hub)
        engine.run_jobs(engine_jobs(4))
        hub.close()
        manifest = engine.manifest().as_dict()
        expected = {
            "retries": manifest["resilience"]["retries"],
            "faults": manifest["resilience"]["faults_injected"],
            "pool_rebuilds": manifest["resilience"]["pool_rebuilds"],
            "quarantines": manifest["engine"]["corrupt_blobs"],
            "pooled_jobs": manifest["trace"]["pooled_jobs"],
            "trace_packed_bytes": manifest["trace"]["packed_bytes"],
        }
        assert expected["retries"] >= 1
        assert expected["faults"] >= 2
        assert expected["pooled_jobs"] == 4
        assert expected["trace_packed_bytes"] > 0
        for snap in (hub.snapshot(), TelemetryHub.replay(spool).snapshot()):
            fleet = snap["fleet"]
            assert {k: fleet[k] for k in expected} == expected
            assert snap["worker_utilization"] == (
                manifest["worker_utilization"])


class TestSnapshotAndDashboard:
    def test_snapshot_schema(self):
        hub = TelemetryHub()
        run_one_job(hub)
        hub.note_progress(engine_payload())
        hub.close()
        snap = hub.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["fleet"]["jobs_done"] == 1
        assert snap["dropped_frames"] == 0
        assert len(snap["jobs"]) == 1
        job = snap["jobs"][0]
        assert job["state"] == "done"
        assert job["ipc_series"]
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_snapshot_includes_drift_when_armed(self):
        hub = TelemetryHub(drift=DriftDetector())
        assert "drift" in hub.snapshot()
        assert "drift" not in TelemetryHub().snapshot()

    def test_dashboard_renders(self):
        hub = TelemetryHub()
        run_one_job(hub)
        hub.note_progress(engine_payload())
        text = render_dashboard(hub)
        assert "jobs" in text
        assert "dropped frames 0" in text
        assert "fgnvm" in text
        assert "done" in text

    def test_dashboard_shows_drift_findings(self):
        envelope = DriftEnvelope(config="fgnvm-4x4", benchmark="mcf",
                                 ipc_min=50.0, ipc_max=60.0,
                                 rel_tol=0.0)
        hub = TelemetryHub(drift=DriftDetector(
            envelopes={("fgnvm-4x4", "mcf"): envelope},
        ))
        job, _ = run_one_job(hub)
        assert envelope.config == job.config.name  # recipe sanity
        assert hub.drift.findings, "impossible envelope must trip"
        text = render_dashboard(hub)
        assert "DRIFT" in text
        assert "ipc_low" in text


class TestSpoolAndReplay:
    def test_spool_written_and_replayable(self, tmp_path):
        spool = tmp_path / "telemetry.jsonl"
        hub = TelemetryHub(spool_path=spool)
        _, result = run_one_job(hub)
        hub.note_progress(engine_payload())
        hub.close()
        assert spool.exists()
        replayed = TelemetryHub.replay(spool)
        assert replayed.frames_seen == hub.frames_seen
        assert replayed.fleet.jobs_done == 1
        view = next(iter(replayed.jobs.values()))
        assert view.cycles == result.cycles
        assert list(view.ipc_series) == list(
            next(iter(hub.jobs.values())).ipc_series
        )
        assert "drift" not in replayed.snapshot()

    def test_replay_missing_spool_raises(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            TelemetryHub.replay(tmp_path / "absent.jsonl")

    @staticmethod
    def detector():
        envelope = DriftEnvelope(config="fgnvm-4x4", benchmark="mcf",
                                 ipc_min=50.0, ipc_max=60.0, rel_tol=0.0)
        return DriftDetector(envelopes={("fgnvm-4x4", "mcf"): envelope})

    def drifting_spool(self, tmp_path):
        spool = tmp_path / "telemetry.jsonl"
        hub = TelemetryHub(spool_path=spool, drift=self.detector())
        run_one_job(hub)
        hub.close()
        return spool, hub

    def test_drift_frames_survive_replay_in_spool(self, tmp_path):
        spool, hub = self.drifting_spool(tmp_path)
        assert hub.drift.findings
        lines = spool.read_text(encoding="utf-8").splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        # One frame per finding: the live hub folds its own drift
        # frames without counting them a second time.
        assert kinds.count(FR_DRIFT) == len(hub.drift.findings)

    def test_replay_rebuilds_drift_findings(self, tmp_path):
        spool, hub = self.drifting_spool(tmp_path)
        replayed = TelemetryHub.replay(spool)
        assert replayed.snapshot()["drift"]["findings"] == (
            hub.snapshot()["drift"]["findings"])
        assert "DRIFT" in render_dashboard(replayed)

    def test_replay_with_envelope_counts_each_finding_once(self, tmp_path):
        spool, hub = self.drifting_spool(tmp_path)
        replayed = TelemetryHub.replay(spool, drift=self.detector())
        assert len(replayed.drift.findings) == len(hub.drift.findings)
        assert replayed.frames_seen == hub.frames_seen


class TestUtilization:
    def test_utilization_from_wall_and_elapsed(self):
        hub = TelemetryHub()
        hub.note_progress(dict(engine_payload(done=2, total=2),
                               workers=2, busy_s=14.0, wall_s=10.0))
        # Job wall times do not feed it: the engine's busy_s does.
        hub.fold(TelemetryFrame(
            kind="job_end", seq=0, job="j0", worker=1, t=0.0,
            payload={"wall_s": 99.0, "cycles": 1, "instructions": 1,
                     "ipc": 1.0, "dropped_frames": 0},
        ))
        assert hub.utilization == pytest.approx(14.0 / 20.0)
        assert hub.utilization == worker_utilization(14.0, 10.0, 2)
        assert hub.utilization == RunManifest(
            code_version="v", workers=2, busy_s=14.0, wall_s=10.0,
        ).worker_utilization

    def test_starved_workers_fires_at_close(self):
        hub = TelemetryHub(drift=DriftDetector(utilization_floor=0.9))
        hub.fold(TelemetryFrame(
            kind=FR_ENGINE, seq=0, worker=1, t=0.0,
            payload={"jobs_total": 1, "jobs_done": 1, "elapsed_s": 10.0,
                     "workers": 4},
        ))
        hub.close()
        kinds = [f.kind for f in hub.drift.findings]
        assert kinds == ["starved_workers"]
