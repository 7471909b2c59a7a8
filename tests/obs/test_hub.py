"""TelemetryHub folding, snapshots, dashboard, drift and replay."""

import json

import pytest

from repro.config import fgnvm
from repro.obs.drift import DriftDetector, DriftEnvelope
from repro.obs.events import (
    EV_DRIFT,
    EV_FAULT,
    EV_POOL_REBUILD,
    EV_QUARANTINE,
    EV_RETRY,
    Event,
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
from repro.sim.parallel import ExperimentJob, ProgressEvent
from repro.workloads.synthetic import multi_stream_kernel


def small(cfg, epoch_cycles=500):
    cfg.org.rows_per_bank = 512
    cfg.sim.epoch_cycles = epoch_cycles
    return cfg


def trace():
    return multi_stream_kernel(
        300, streams=4, gap=6, write_fraction=0.25, seed=5,
    )


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
                     "elapsed_s": 4.0, "eta_s": 6.5, "workers": 2},
        ))
        assert hub.fleet.jobs_total == 8
        assert hub.fleet.jobs_done == 3
        assert hub.fleet.cache_hits == 2
        assert hub.fleet.eta_s == 6.5
        assert hub.fleet.workers == 2

    def test_note_progress_is_an_engine_frame(self):
        hub = TelemetryHub()
        hub.note_workers(4)
        hub.note_progress(ProgressEvent(
            done=2, total=10, elapsed_s=3.0, cache_hits=1,
        ))
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
    def test_harness_events_fold_into_fleet(self):
        hub = TelemetryHub()
        probe = hub.adopt_probe(make_probe(ListSink()))
        for kind in (EV_RETRY, EV_RETRY, EV_FAULT, EV_QUARANTINE,
                     EV_POOL_REBUILD):
            probe.emit(Event(kind=kind, cycle=0))
        assert hub.fleet.retries == 2
        assert hub.fleet.faults == 1
        assert hub.fleet.quarantines == 1
        assert hub.fleet.pool_rebuilds == 1

    def test_original_sink_still_sees_events(self):
        hub = TelemetryHub()
        sink = ListSink()
        probe = hub.adopt_probe(make_probe(sink))
        probe.emit(Event(kind=EV_RETRY, cycle=0))
        assert [e.kind for e in sink.events] == [EV_RETRY]

    def test_retry_storm_emits_drift_event(self):
        sink = ListSink()
        hub = TelemetryHub(drift=DriftDetector(retry_storm_threshold=3))
        probe = hub.adopt_probe(make_probe(sink))
        for _ in range(4):
            probe.emit(Event(kind=EV_RETRY, cycle=0))
        drift_events = [e for e in sink.events if e.kind == EV_DRIFT]
        assert len(drift_events) == 1
        assert drift_events[0].service == "retry_storm"
        assert len(hub.drift.findings) == 1

    def test_adopting_null_probe_still_counts(self):
        hub = TelemetryHub()
        probe = hub.adopt_probe(None)
        probe.emit(Event(kind=EV_FAULT, cycle=0))
        assert hub.fleet.faults == 1


class TestSnapshotAndDashboard:
    def test_snapshot_schema(self):
        hub = TelemetryHub()
        run_one_job(hub)
        hub.note_progress(ProgressEvent(
            done=1, total=1, elapsed_s=1.0, cache_hits=0,
        ))
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
        hub.note_progress(ProgressEvent(
            done=1, total=1, elapsed_s=1.0, cache_hits=0,
        ))
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
        hub.note_progress(ProgressEvent(
            done=1, total=1, elapsed_s=1.0, cache_hits=0,
        ))
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
        hub.note_workers(2)
        hub.fold(TelemetryFrame(
            kind=FR_ENGINE, seq=0, worker=1, t=0.0,
            payload={"jobs_total": 2, "jobs_done": 2, "elapsed_s": 10.0,
                     "workers": 2},
        ))
        for seq, wall in enumerate((6.0, 8.0)):
            hub.fold(TelemetryFrame(
                kind="job_end", seq=seq, job=f"j{seq}", worker=1, t=0.0,
                payload={"wall_s": wall, "cycles": 1, "instructions": 1,
                         "ipc": 1.0, "dropped_frames": 0},
            ))
        assert hub.utilization == pytest.approx(14.0 / 20.0)

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
