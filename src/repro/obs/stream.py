"""Live telemetry frames: the streaming half of the observability layer.

Everything observability had before this module is post-hoc — JSONL
exports, the perf ledger, blame reports all require a finished run.
This module makes the epoch sampler, the job lifecycle and the engine
counters visible *while* a sweep is in flight:

* :class:`TelemetryFrame` — the schema-versioned wire format: one JSON
  object per frame, kinds for job lifecycle (``job_start`` /
  ``job_end``), per-epoch metric samples (``epoch``), supervisor
  counter snapshots (``engine``) and drift anomalies (``drift``),
* :class:`TelemetryChannel` — a bounded, *drop-counting* frame
  transport.  Publishing never blocks: a full queue increments
  ``dropped`` and the frame is lost, so telemetry can never stall a
  worker (the same never-perturb contract as ``NULL_PROBE``),
* worker plumbing — :func:`init_worker` is the pool initializer that
  binds a shared ``multiprocessing`` queue inside each worker;
  :func:`streamed_simulate` is the streaming job execution path
  :func:`repro.sim.parallel.execute_job` switches to when a channel is
  active.  With no channel active the execution path is byte-for-byte
  the pre-streaming one, which is what keeps stream-off runs
  bit-identical,
* spool I/O — frames append to a durable ``telemetry.jsonl`` that
  ``repro watch --replay`` and external scrapers can tail.

Serial and pooled engines run the identical frame-producing code (the
channel is just backed by a :class:`queue.Queue` in-process and a
``multiprocessing`` queue across the pool), so the two paths emit
equivalent frame streams for the same sweep.
"""

from __future__ import annotations

import json
import os
import queue
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from .events import make_probe

#: Frame schema identifier; bumped on any incompatible payload change.
FRAME_SCHEMA = "repro-telemetry-frame-v1"

#: Frame kinds.
FR_JOB_START = "job_start"  #: a worker began simulating one job
FR_EPOCH = "epoch"          #: one epoch sample, streamed as it happens
FR_JOB_END = "job_end"      #: job finished (payload carries run totals)
FR_ENGINE = "engine"        #: supervisor-side engine counter snapshot
FR_DRIFT = "drift"          #: drift detector anomaly (hub-published)

FRAME_KINDS = (FR_JOB_START, FR_EPOCH, FR_JOB_END, FR_ENGINE, FR_DRIFT)

#: Default channel capacity: generous for thousand-epoch jobs, bounded
#: so a stalled supervisor costs dropped frames, never blocked workers.
DEFAULT_CAPACITY = 4096

#: Payload keys every frame of a kind must carry (schema validation).
_REQUIRED_PAYLOAD = {
    FR_JOB_START: ("config", "benchmark", "requests"),
    FR_EPOCH: ("epoch", "start_cycle", "instructions", "reads",
               "writes", "pending", "ipc"),
    FR_JOB_END: ("wall_s", "cycles", "instructions", "ipc",
                 "dropped_frames"),
    FR_ENGINE: ("jobs_total", "jobs_done"),
    FR_DRIFT: ("kind",),
}


@dataclass(frozen=True, slots=True)
class TelemetryFrame:
    """One telemetry snapshot on the wire.

    ``seq`` is a per-publisher sequence number (each worker process and
    the supervisor count independently); ``worker`` is the publishing
    PID; ``t`` is a wall-clock timestamp for dashboards.  None of the
    three feed back into simulated results — frames are observability
    only.
    """

    kind: str
    seq: int
    job: str = ""
    worker: int = -1
    t: float = 0.0
    payload: Dict[str, object] = field(default_factory=dict)
    schema: str = FRAME_SCHEMA


def frame_to_json(frame: TelemetryFrame) -> Dict[str, object]:
    """JSON-stable dict for one frame (spool line / wire format)."""
    return {
        "schema": frame.schema,
        "kind": frame.kind,
        "seq": frame.seq,
        "job": frame.job,
        "worker": frame.worker,
        "t": round(frame.t, 6),
        "payload": frame.payload,
    }


def frame_from_json(data: Dict[str, object]) -> TelemetryFrame:
    """Rebuild a frame from its JSON form (schema-checked)."""
    problems = validate_frame(data)
    if problems:
        raise ReproError(
            "invalid telemetry frame: " + "; ".join(problems)
        )
    return TelemetryFrame(
        kind=data["kind"],
        seq=data["seq"],
        job=data.get("job", ""),
        worker=data.get("worker", -1),
        t=data.get("t", 0.0),
        payload=dict(data.get("payload", {})),
    )


def validate_frame(data: Dict[str, object]) -> List[str]:
    """Schema problems of one frame-as-dict (empty list = valid).

    This is the published frame contract CI validates ``repro watch``
    output and the ``telemetry.jsonl`` spool against.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"frame must be an object, got {type(data).__name__}"]
    if data.get("schema") != FRAME_SCHEMA:
        problems.append(
            f"schema must be {FRAME_SCHEMA!r}, got {data.get('schema')!r}"
        )
    kind = data.get("kind")
    if kind not in FRAME_KINDS:
        problems.append(
            f"unknown kind {kind!r}; known: {', '.join(FRAME_KINDS)}"
        )
    if not isinstance(data.get("seq"), int) or data.get("seq", -1) < 0:
        problems.append(f"seq must be a non-negative int, got "
                        f"{data.get('seq')!r}")
    if not isinstance(data.get("job", ""), str):
        problems.append("job must be a string")
    payload = data.get("payload", {})
    if not isinstance(payload, dict):
        problems.append("payload must be an object")
    else:
        for key in _REQUIRED_PAYLOAD.get(kind, ()):
            if key not in payload:
                problems.append(f"{kind} payload missing {key!r}")
    return problems


# -- transport --------------------------------------------------------------


class TelemetryChannel:
    """Bounded frame transport that counts drops instead of blocking.

    Wraps any queue with ``put_nowait``/``get_nowait`` semantics — a
    :class:`queue.Queue` for in-process (serial) streaming, a
    ``multiprocessing`` queue across a worker pool.  The publishing
    contract is absolute: :meth:`publish` returns immediately, always;
    a full queue costs one dropped frame, never a stalled simulation.
    """

    def __init__(self, raw_queue, capacity: int = DEFAULT_CAPACITY):
        self.queue = raw_queue
        self.capacity = capacity
        #: Frames lost to a full queue in *this* process (workers report
        #: their local count inside every ``job_end`` payload).
        self.dropped = 0
        self._seq = 0

    @classmethod
    def serial(cls, capacity: int = DEFAULT_CAPACITY) -> "TelemetryChannel":
        """An in-process channel (serial engines, tests, replays)."""
        return cls(queue.Queue(maxsize=capacity), capacity)

    @classmethod
    def pooled(cls, capacity: int = DEFAULT_CAPACITY) -> "TelemetryChannel":
        """A process-safe channel shareable with pool workers."""
        import multiprocessing

        return cls(
            multiprocessing.get_context().Queue(maxsize=capacity), capacity
        )

    def publish(self, kind: str, job: str = "",
                payload: Optional[Dict[str, object]] = None) -> bool:
        """Enqueue one frame; False (and one drop counted) when full."""
        frame = TelemetryFrame(
            kind=kind,
            seq=self._seq,
            job=job,
            worker=os.getpid(),
            t=time.time(),
            payload=payload if payload is not None else {},
        )
        self._seq += 1
        try:
            self.queue.put_nowait(frame)
        except queue.Full:
            self.dropped += 1
            return False
        except (OSError, ValueError):
            # A torn-down mp queue (e.g. brutal pool shutdown mid-job)
            # is a transport loss, never a worker failure.
            self.dropped += 1
            return False
        return True

    def drain(self, limit: Optional[int] = None) -> List[TelemetryFrame]:
        """Every frame currently readable, without blocking."""
        frames: List[TelemetryFrame] = []
        while limit is None or len(frames) < limit:
            try:
                frames.append(self.queue.get_nowait())
            except queue.Empty:
                break
            except (OSError, EOFError, ValueError):
                break  # transport torn down under us; keep what we have
        return frames


# -- worker plumbing --------------------------------------------------------

#: The process-local active channel.  ``None`` (the default) keeps
#: :func:`repro.sim.parallel.execute_job` on the exact pre-streaming
#: code path — the stream-off bit-identity contract.
_ACTIVE: Optional[TelemetryChannel] = None


def active_channel() -> Optional[TelemetryChannel]:
    """The channel simulations in this process publish to (or None)."""
    return _ACTIVE


def activate(channel: Optional[TelemetryChannel]
             ) -> Optional[TelemetryChannel]:
    """Install the process-local channel; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, channel
    return previous


def init_worker(raw_queue, capacity: int = DEFAULT_CAPACITY) -> None:
    """Pool-worker initializer: bind the shared queue in this process.

    Passed (with the queue) as ``initializer``/``initargs`` to
    ``ProcessPoolExecutor``, so the queue travels to workers over the
    process-spawn path where ``multiprocessing`` queues are shareable.
    """
    activate(TelemetryChannel(raw_queue, capacity))


def job_label(job) -> str:
    """Stable display label for one engine job (hub/watch keys)."""
    label = f"{job.config.name}/{job.benchmark}/{job.requests}"
    if job.seed is not None:
        label += f"#{job.seed}"
    return label


def epoch_payload(sample, epoch_cycles: int,
                  cpu_ratio: float) -> Dict[str, object]:
    """The ``epoch`` frame payload for one EpochSample.

    Shared by the live hook and the equivalence tests, so "streamed
    epoch series == batch epoch series" is pinned against one encoder.
    """
    return {
        "epoch": sample.epoch,
        "start_cycle": sample.start_cycle,
        "instructions": sample.instructions,
        "reads": sample.reads,
        "writes": sample.writes,
        "row_hits": sample.row_hits,
        "pending": sample.pending,
        "ipc": round(sample.ipc(epoch_cycles, cpu_ratio), 6),
        "hit_rate": round(sample.hit_rate, 6),
    }


def epoch_frame_hook(channel: TelemetryChannel, label: str,
                     epoch_cycles: int, cpu_ratio: float):
    """An epoch hook publishing one ``epoch`` frame per sample."""

    def hook(sample) -> None:
        channel.publish(FR_EPOCH, label,
                        epoch_payload(sample, epoch_cycles, cpu_ratio))

    return hook


def streamed_simulate(channel: TelemetryChannel, job, trace):
    """Run one job while streaming its lifecycle and epoch samples.

    The simulated results are untouched — the epoch tap only *reads*
    counters the recorder snapshots anyway, and frame publishing never
    blocks.  Returns the same :class:`~repro.sim.result.SimResult`
    the plain path would.
    """
    # Imported lazily: this module must stay a leaf of repro.obs so the
    # simulation stack can import it without a cycle.
    from ..sim.simulator import simulate

    config = job.config
    label = job_label(job)
    cpu_ratio = config.cpu.cpu_cycles_per_mem_cycle(config.timing.tck_ns)
    epoch_cycles = config.sim.epoch_cycles
    channel.publish(FR_JOB_START, label, {
        "config": config.name,
        "benchmark": job.benchmark,
        "requests": job.requests,
        "seed": job.seed,
        "epoch_cycles": epoch_cycles,
    })
    tap = (
        epoch_frame_hook(channel, label, epoch_cycles, cpu_ratio)
        if epoch_cycles else None
    )
    started = time.monotonic()
    result = simulate(config, trace, probe=make_probe(on_epoch=tap))
    stats = result.stats
    channel.publish(FR_JOB_END, label, {
        "wall_s": round(time.monotonic() - started, 6),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": round(result.ipc, 6),
        "reads": stats.reads,
        "writes": stats.writes,
        "row_hit_rate": round(stats.row_hit_rate, 6),
        "epochs": len(result.epochs) if result.epochs else 0,
        "dropped_frames": channel.dropped,
    })
    return result


# -- spool I/O --------------------------------------------------------------


def write_spool_line(handle, frame: TelemetryFrame) -> None:
    """Append one frame to an open spool handle (one JSON per line)."""
    handle.write(json.dumps(frame_to_json(frame), sort_keys=True,
                            separators=(",", ":")))
    handle.write("\n")


def read_spool(path: "str | os.PathLike[str]", offset: int = 0
               ) -> Tuple[List[TelemetryFrame], int]:
    """Frames appended since ``offset`` plus the new tail offset.

    Tail-friendly: a partially-written last line (a writer mid-append)
    is left for the next read instead of raising, so ``repro watch``
    can follow a live spool.
    """
    path = Path(path)
    frames: List[TelemetryFrame] = []
    with path.open("r", encoding="utf-8") as handle:
        handle.seek(offset)
        while True:
            line_start = handle.tell()
            line = handle.readline()
            if not line:
                break
            if not line.endswith("\n"):
                return frames, line_start  # torn tail: retry next poll
            line = line.strip()
            if not line:
                continue
            try:
                frames.append(frame_from_json(json.loads(line)))
            except (json.JSONDecodeError, ReproError) as exc:
                raise ReproError(
                    f"{path}: bad telemetry frame at byte {line_start}: "
                    f"{exc}"
                ) from exc
        return frames, handle.tell()
