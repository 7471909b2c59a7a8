"""The supervisor-side telemetry hub: fold, watch, spool.

:class:`TelemetryHub` is the single consumer of the frame stream
(:mod:`repro.obs.stream`) and the single source of truth for everything
live observers see:

* **fold** — frames drain into per-job ring-buffer time series (fixed
  memory per job, however long the run) plus fleet-wide counters
  (progress, cache hits, retries, dropped frames),
* **watch** — :func:`render_dashboard` draws the live ASCII view
  ``repro watch`` refreshes (per-job progress/ETA, worker utilization,
  epoch IPC sparklines); :meth:`TelemetryHub.snapshot` is the same
  state as schema-versioned JSON for ``--json`` / CI,
* **spool** — every folded frame appends to a durable
  ``telemetry.jsonl``, replayable by ``repro watch --replay`` and
  ``repro inspect``,
* **drift** — epoch frames are checked against a committed golden
  envelope (:mod:`repro.obs.drift`); anomalies become ``drift`` frames,
  :data:`~repro.obs.events.EV_DRIFT` probe events and manifest entries,
  and ``drift`` frames replayed from a spool become findings again.

The hub also *publishes*: engine progress snapshots arrive through
:meth:`note_progress` (the progress hook the engines call), which keeps
``--progress`` lines and ``repro watch`` reading the same counters —
they cannot disagree about job counts.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..errors import ReproError
from .drift import DriftDetector, DriftFinding
from .events import (
    EV_DEGRADED,
    EV_DRIFT,
    EV_FAULT,
    EV_POOL_REBUILD,
    EV_QUARANTINE,
    EV_RETRY,
    NULL_PROBE,
    Event,
    make_probe,
)
from .stream import (
    FR_DRIFT,
    FR_ENGINE,
    FR_EPOCH,
    FR_JOB_END,
    FR_JOB_START,
    TelemetryChannel,
    TelemetryFrame,
    read_spool,
    write_spool_line,
)

#: Snapshot (``repro watch --json``) schema identifier.
SNAPSHOT_SCHEMA = "repro-telemetry-snapshot-v1"

#: Default spool file name (written next to the cache / manifest).
SPOOL_NAME = "telemetry.jsonl"

#: Ring-buffer length per job series: enough for a sparkline and recent
#: history, fixed memory however many epochs a job produces.
RING = 120


@dataclass
class JobView:
    """Folded state of one job's frame stream."""

    label: str
    config: str = ""
    benchmark: str = ""
    requests: int = 0
    seed: Optional[int] = None
    state: str = "running"      #: "running" | "done"
    worker: int = -1
    wall_s: float = 0.0
    cycles: int = 0
    instructions: int = 0
    ipc: float = 0.0
    epochs: int = 0
    dropped_frames: int = 0
    #: Recent per-epoch IPC (a ring buffer, fixed memory).
    ipc_series: deque = field(default_factory=lambda: deque(maxlen=RING))

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "config": self.config,
            "benchmark": self.benchmark,
            "requests": self.requests,
            "seed": self.seed,
            "state": self.state,
            "worker": self.worker,
            "wall_s": round(self.wall_s, 6),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": round(self.ipc, 6),
            "epochs": self.epochs,
            "dropped_frames": self.dropped_frames,
            "ipc_series": [round(v, 6) for v in self.ipc_series],
        }


@dataclass
class FleetView:
    """Folded fleet-wide counters (the ``engine`` frame state)."""

    jobs_total: int = 0
    jobs_done: int = 0
    cache_hits: int = 0
    elapsed_s: float = 0.0
    eta_s: Optional[float] = None
    workers: int = 1
    retries: int = 0
    faults: int = 0
    quarantines: int = 0
    pool_rebuilds: int = 0
    degraded: int = 0
    #: Trace-pipeline counters (note_trace; zero for pre-packed runs).
    trace_cache_hits: int = 0
    trace_packed_bytes: int = 0
    pooled_jobs: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs_total": self.jobs_total,
            "jobs_done": self.jobs_done,
            "cache_hits": self.cache_hits,
            "elapsed_s": round(self.elapsed_s, 3),
            "eta_s": (round(self.eta_s, 3)
                      if self.eta_s is not None else None),
            "workers": self.workers,
            "retries": self.retries,
            "faults": self.faults,
            "quarantines": self.quarantines,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
            "trace_cache_hits": self.trace_cache_hits,
            "trace_packed_bytes": self.trace_packed_bytes,
            "pooled_jobs": self.pooled_jobs,
        }


class TelemetryHub:
    """Fold the frame stream; feed watch, snapshot, manifest and spool.

    * ``spool_path`` — append folded frames to this ``telemetry.jsonl``
      (None keeps telemetry in-memory only),
    * ``drift`` — optional :class:`~repro.obs.drift.DriftDetector`
      checked on every epoch frame.

    The hub is also an :class:`~repro.obs.events.EventSink`: adopt an
    engine's probe with :meth:`adopt_probe` and harness events (retries,
    faults, quarantines, pool rebuilds) fold into the fleet counters.
    """

    def __init__(
        self,
        spool_path: "str | os.PathLike[str] | None" = None,
        drift: Optional[DriftDetector] = None,
    ):
        self.fleet = FleetView()
        self.jobs: Dict[str, JobView] = {}
        self.drift = drift
        self.frames_seen = 0
        self.channel: Optional[TelemetryChannel] = None
        #: Probe drift events are emitted on (set by :meth:`adopt_probe`).
        self.probe = NULL_PROBE
        #: Cumulative dropped-frame count per publisher PID, as reported
        #: in ``job_end`` payloads (and the hub's own channel at close).
        self._dropped_by_pid: Dict[int, int] = {}
        self._spool_path = Path(spool_path) if spool_path else None
        self._spool = None
        self._seq = 0
        # Frame-timestamp span: engines report elapsed_s per *batch*,
        # but jobs accumulate across batches (figure commands run
        # several), so utilization needs the whole-run wall span.
        self._t_first: Optional[float] = None
        self._t_last = 0.0
        # Reentrant: folding an epoch frame can raise a drift finding,
        # which folds a drift frame from inside the same fold call.
        self._lock = threading.RLock()
        self._closed = False

    # -- channel lifecycle ---------------------------------------------------

    def start(self, pooled: bool) -> TelemetryChannel:
        """Ensure a channel of the right transport exists and return it.

        Serial runs get an in-process queue; pooled runs a
        ``multiprocessing`` queue shareable with workers.  Upgrading
        serial → pooled drains the old channel first so no frame is
        lost across the switch.
        """
        if self.channel is not None:
            if not pooled or not isinstance(self.channel.queue, queue.Queue):
                return self.channel
            self.pump()  # drain the serial channel before replacing it
        self.channel = (TelemetryChannel.pooled() if pooled
                        else TelemetryChannel.serial())
        return self.channel

    def pump(self, limit: Optional[int] = None) -> int:
        """Drain and fold everything currently readable; returns count."""
        if self.channel is None:
            return 0
        frames = self.channel.drain(limit)
        for frame in frames:
            self.fold(frame)
        return len(frames)

    def close(self) -> None:
        """Final drain, end-of-run drift checks, spool shutdown."""
        if self._closed:
            return
        self._closed = True
        self.pump()
        if self.channel is not None:
            pid = os.getpid()
            self._dropped_by_pid[pid] = max(
                self._dropped_by_pid.get(pid, 0), self.channel.dropped
            )
        if self.drift is not None:
            finding = self.drift.check_utilization(self.utilization)
            if finding is not None:
                self._publish_drift(finding)
        if self._spool is not None:
            try:
                self._spool.close()
            except OSError:
                pass
            self._spool = None

    # -- folding -------------------------------------------------------------

    def fold(self, frame: TelemetryFrame) -> None:
        """Fold one frame into the hub state (and the spool)."""
        with self._lock:
            self.frames_seen += 1
            if frame.t:
                if self._t_first is None:
                    self._t_first = frame.t
                self._t_last = max(self._t_last, frame.t)
            handler = {
                FR_JOB_START: self._fold_job_start,
                FR_EPOCH: self._fold_epoch,
                FR_JOB_END: self._fold_job_end,
                FR_ENGINE: self._fold_engine,
                FR_DRIFT: self._fold_drift,
            }.get(frame.kind)
            if handler is not None:
                handler(frame)
            self._spool_write(frame)

    def _view(self, label: str) -> JobView:
        view = self.jobs.get(label)
        if view is None:
            view = self.jobs[label] = JobView(label=label)
        return view

    def _fold_job_start(self, frame: TelemetryFrame) -> None:
        view = self._view(frame.job)
        payload = frame.payload
        view.state = "running"
        view.worker = frame.worker
        view.config = str(payload.get("config", ""))
        view.benchmark = str(payload.get("benchmark", ""))
        view.requests = int(payload.get("requests", 0))
        view.seed = payload.get("seed")

    def _fold_epoch(self, frame: TelemetryFrame) -> None:
        view = self._view(frame.job)
        payload = frame.payload
        ipc = float(payload.get("ipc", 0.0))
        view.epochs += 1
        view.ipc_series.append(ipc)
        if self.drift is not None:
            finding = self.drift.check_epoch(
                view.label, view.config, view.benchmark,
                int(payload.get("epoch", 0)), ipc,
            )
            if finding is not None:
                self._publish_drift(finding)

    def _fold_job_end(self, frame: TelemetryFrame) -> None:
        view = self._view(frame.job)
        payload = frame.payload
        view.state = "done"
        view.wall_s = float(payload.get("wall_s", 0.0))
        view.cycles = int(payload.get("cycles", 0))
        view.instructions = int(payload.get("instructions", 0))
        view.ipc = float(payload.get("ipc", 0.0))
        view.dropped_frames = int(payload.get("dropped_frames", 0))
        if frame.worker >= 0:
            # The payload count is cumulative per publishing process;
            # keep the max so per-PID totals never double-count.
            self._dropped_by_pid[frame.worker] = max(
                self._dropped_by_pid.get(frame.worker, 0),
                view.dropped_frames,
            )

    def _fold_engine(self, frame: TelemetryFrame) -> None:
        payload = frame.payload
        fleet = self.fleet
        fleet.jobs_total = int(payload.get("jobs_total", fleet.jobs_total))
        fleet.jobs_done = int(payload.get("jobs_done", fleet.jobs_done))
        fleet.cache_hits = int(payload.get("cache_hits",
                                           fleet.cache_hits))
        fleet.elapsed_s = float(payload.get("elapsed_s", fleet.elapsed_s))
        eta = payload.get("eta_s", fleet.eta_s)
        fleet.eta_s = float(eta) if eta is not None else None
        fleet.workers = int(payload.get("workers", fleet.workers))

    def _fold_drift(self, frame: TelemetryFrame) -> None:
        # A replayed spool rebuilds the findings, with or without an
        # envelope.  The detector drops a finding it already holds: the
        # live hub folding its own frame, or a replay with an envelope
        # re-detecting it from the epoch series.
        if self.drift is None:
            self.drift = DriftDetector()
        self.drift.record(DriftFinding.from_dict(frame.payload))

    # -- publishing ----------------------------------------------------------

    def note_progress(self, event) -> None:
        """Fold one engine progress snapshot (the engines' hook).

        Accepts a :class:`~repro.sim.parallel.ProgressEvent` (anything
        with ``done``/``total``/``elapsed_s``/``eta_s``/``cache_hits``).
        Supervisor-side state folds directly — it never rides the
        worker queue, so a full queue cannot lose progress truth.
        """
        self._engine_frame({
            "jobs_total": event.total,
            "jobs_done": event.done,
            "cache_hits": getattr(event, "cache_hits", 0),
            "elapsed_s": round(event.elapsed_s, 6),
            "eta_s": getattr(event, "eta_s", None),
            "workers": self.fleet.workers,
        })
        self.pump()

    def note_workers(self, workers: int) -> None:
        self.fleet.workers = max(1, workers)

    def note_trace(self, block: Dict[str, object]) -> None:
        """Fold one engine's trace-pipeline counters into the fleet view.

        ``block`` is :meth:`repro.sim.parallel.TraceStats.as_dict`; the
        counters are cumulative per engine, so the fleet keeps the
        latest report (engines call this once per batch).
        """
        fleet = self.fleet
        fleet.trace_cache_hits = int(block.get("trace_cache_hits", 0))
        fleet.trace_packed_bytes = int(block.get("packed_bytes", 0))
        fleet.pooled_jobs = int(block.get("pooled_jobs", 0))

    def _engine_frame(self, payload: Dict[str, object]) -> None:
        self._seq += 1
        self.fold(TelemetryFrame(
            kind=FR_ENGINE, seq=self._seq, worker=os.getpid(),
            t=time.time(), payload=payload,
        ))

    def _publish_drift(self, finding) -> None:
        self._seq += 1
        self.fold(TelemetryFrame(
            kind=FR_DRIFT, seq=self._seq, job=finding.job,
            worker=os.getpid(), t=time.time(),
            payload=finding.as_dict(),
        ))
        if self.probe.enabled:
            self.probe.emit(Event(
                kind=EV_DRIFT, cycle=finding.epoch,
                service=finding.kind,
                value=int(finding.observed * 1e6),
            ))

    # -- probe adoption (harness events → fleet counters) --------------------

    def adopt_probe(self, probe):
        """Tee an engine probe through the hub; returns the new probe.

        The original sink (if any) still sees every event, and its
        tracer and epoch tap ride along; the hub additionally folds
        harness kinds into the fleet counters.  Drift events the hub
        itself raises go to the *original* probe.
        """
        self.probe = probe = probe if probe is not None else NULL_PROBE
        return make_probe(probe.sink, self, tracer=probe.tracer,
                          on_epoch=probe.on_epoch)

    def on_event(self, event: Event) -> None:
        """EventSink: count harness events into the fleet view."""
        fleet = self.fleet
        if event.kind == EV_RETRY:
            fleet.retries += 1
            if self.drift is not None:
                finding = self.drift.check_retries(fleet.retries)
                if finding is not None:
                    self._publish_drift(finding)
        elif event.kind == EV_FAULT:
            fleet.faults += 1
        elif event.kind == EV_QUARANTINE:
            fleet.quarantines += 1
        elif event.kind == EV_POOL_REBUILD:
            fleet.pool_rebuilds += 1
        elif event.kind == EV_DEGRADED:
            fleet.degraded = 1

    # -- derived state -------------------------------------------------------

    @property
    def dropped_frames(self) -> int:
        """Fleet-wide dropped-frame total (never hidden, never blocking)."""
        total = sum(self._dropped_by_pid.values())
        if self.channel is not None:
            pid = os.getpid()
            total += max(0, self.channel.dropped
                         - self._dropped_by_pid.get(pid, 0))
        return total

    @property
    def utilization(self) -> float:
        """Busy fraction of the fleet's wall capacity so far.

        Capacity spans the whole run: ``elapsed_s`` only covers the
        current engine batch, so the frame-timestamp span wins when a
        command ran several batches.
        """
        span = ((self._t_last - self._t_first)
                if self._t_first is not None else 0.0)
        elapsed = max(self.fleet.elapsed_s, span)
        capacity = elapsed * max(1, self.fleet.workers)
        busy = sum(v.wall_s for v in self.jobs.values())
        return busy / capacity if capacity > 0 else 0.0

    def snapshot(self) -> Dict[str, object]:
        """The whole hub state as schema-versioned JSON (``--json``)."""
        data = {
            "schema": SNAPSHOT_SCHEMA,
            "fleet": self.fleet.as_dict(),
            "worker_utilization": round(self.utilization, 4),
            "dropped_frames": self.dropped_frames,
            "frames_seen": self.frames_seen,
            "jobs": [view.as_dict()
                     for _, view in sorted(self.jobs.items())],
        }
        if self.drift is not None:
            data["drift"] = self.drift.summary()
        return data

    def manifest_block(self) -> Dict[str, object]:
        """The ``telemetry`` block of the run manifest."""
        block = {
            "frames_seen": self.frames_seen,
            "dropped_frames": self.dropped_frames,
            "jobs_streamed": len(self.jobs),
            "spool": str(self._spool_path) if self._spool_path else None,
        }
        if self.drift is not None:
            block["drift"] = self.drift.summary()
        return block

    # -- spool ---------------------------------------------------------------

    def _spool_write(self, frame: TelemetryFrame) -> None:
        if self._spool_path is None:
            return
        if self._spool is None:
            self._spool_path.parent.mkdir(parents=True, exist_ok=True)
            self._spool = self._spool_path.open("a", encoding="utf-8")
        try:
            write_spool_line(self._spool, frame)
            self._spool.flush()
        except OSError:
            # A dead spool (disk full) must never take the run down.
            try:
                self._spool.close()
            except OSError:
                pass
            self._spool = None
            self._spool_path = None

    @classmethod
    def replay(cls, spool: "str | os.PathLike[str]",
               drift: Optional[DriftDetector] = None) -> "TelemetryHub":
        """Rebuild a hub from a spool (``repro watch --replay``)."""
        path = Path(spool)
        if not path.exists():
            raise ReproError(
                f"no telemetry spool at {path}; record one with "
                "--telemetry on a run/figure/compare command"
            )
        hub = cls(drift=drift)
        frames, _offset = read_spool(path)
        for frame in frames:
            hub.fold(frame)
        return hub


# -- rendering ---------------------------------------------------------------


def render_dashboard(hub: TelemetryHub, width: int = 72) -> str:
    """The ``repro watch`` ASCII dashboard for the hub's current state."""
    # Imported lazily: repro.sim publishes through repro.obs — keep the
    # hub importable before the simulation stack (same leaf rule as
    # obs.inspect).
    from ..sim.epochs import sparkline
    from ..sim.reporting import format_duration, progress_line

    fleet = hub.fleet
    lines = [progress_line(
        fleet.jobs_done, max(fleet.jobs_total, fleet.jobs_done),
        fleet.elapsed_s, fleet.eta_s, label="jobs",
    )]
    lines.append(
        f"workers {fleet.workers}  "
        f"utilization {hub.utilization:6.1%}  "
        f"cache hits {fleet.cache_hits}  "
        f"dropped frames {hub.dropped_frames}"
    )
    if (fleet.retries or fleet.faults or fleet.quarantines
            or fleet.pool_rebuilds or fleet.degraded):
        lines.append(
            f"retries {fleet.retries}  faults {fleet.faults}  "
            f"quarantines {fleet.quarantines}  "
            f"pool rebuilds {fleet.pool_rebuilds}"
            + ("  DEGRADED-TO-SERIAL" if fleet.degraded else "")
        )
    if (fleet.trace_packed_bytes or fleet.pooled_jobs
            or fleet.trace_cache_hits):
        lines.append(
            f"traces {fleet.trace_packed_bytes} packed bytes  "
            f"cache hits {fleet.trace_cache_hits}  "
            f"pooled {fleet.pooled_jobs} job(s)"
        )
    if hub.jobs:
        lines.append("")
        label_width = min(
            max(len(label) for label in hub.jobs), max(16, width // 2)
        )
        spark_width = max(8, width - label_width - 24)
        for label in sorted(hub.jobs):
            view = hub.jobs[label]
            series = list(view.ipc_series)[-spark_width:]
            spark = sparkline(series) if series else ""
            state = ("done" if view.state == "done"
                     else f"e{view.epochs}")
            tail = (f"ipc {view.ipc:.3f}  "
                    f"{format_duration(view.wall_s)}"
                    if view.state == "done"
                    else (f"ipc {series[-1]:.3f}" if series else "…"))
            lines.append(
                f"{label[:label_width].ljust(label_width)} "
                f"{state:>5}  {spark.ljust(spark_width)}  {tail}"
            )
    drift = hub.drift
    if drift is not None and drift.findings:
        lines.append("")
        lines.append(f"DRIFT ({len(drift.findings)} finding(s)):")
        for finding in drift.findings[-5:]:
            where = f" [{finding.job}]" if finding.job else ""
            lines.append(f"  {finding.kind}{where}: {finding.detail}")
    return "\n".join(lines)


__all__ = [
    "SNAPSHOT_SCHEMA",
    "SPOOL_NAME",
    "FleetView",
    "JobView",
    "TelemetryHub",
    "render_dashboard",
]
