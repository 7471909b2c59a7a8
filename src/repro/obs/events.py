"""Structured simulation events: the observability layer's wire format.

Every interesting thing the simulated machine does — a command issued to
a bank tile, a sense, a write pulse, a queue refusing a request, a write
drain starting — is describable as one :class:`Event`.  Components do
not write log files or bump ad-hoc counters for observability; they
publish events through a :class:`Probe`, and whatever sinks are attached
(metric registries, JSONL writers, timeline builders) consume the same
stream.

The hot-path contract is *near-zero overhead when nobody is listening*:
the shared :data:`NULL_PROBE` has ``enabled = False``, and every
publisher guards event construction with ``if probe.enabled:`` so an
uninstrumented simulation allocates nothing and branches once per
potential event.  The determinism suite pins that a probed-but-sinkless
run is bit-identical to an unprobed one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Protocol,
    Sequence, Tuple,
)

if TYPE_CHECKING:
    from .trace import RequestTracer

#: Event kinds published by the instrumented components.
EV_ENQUEUE = "enqueue"          #: request admitted to a controller queue
EV_ISSUE = "issue"              #: command committed to one (SAG, CD) tile
EV_SENSE = "sense"              #: a sense amplified bits into the buffer
EV_WRITE_PULSE = "write_pulse"  #: a write pulse driving cells in a tile
EV_QUEUE_STALL = "queue_stall"  #: admission refused (queue full)
EV_DRAIN = "drain"              #: write-drain transition (value 1=begin, 0=end)
EV_COMPLETE = "complete"        #: read data delivered (value = latency)
EV_CPU_STALL = "cpu_stall"      #: CPU made no progress (service = reason)
EV_RUN_END = "run_end"          #: simulation finished (value = instructions)

#: Request-lifecycle tracing kinds published by the sampled request
#: tracer (:mod:`repro.obs.trace`).  A ``span`` covers one sampled
#: request from queue admission (``cycle``) to completion (``end``)
#: with ``value`` = latency; each ``blame`` event is one contiguous
#: slice of that span with ``service`` naming the blame cause and
#: ``value`` the slice length.
EV_SPAN = "span"                #: one sampled request, admission..completion
EV_BLAME = "blame"              #: one cause-attributed slice of a span

#: Resilience-layer kinds published by the fault-tolerant experiment
#: engine (:mod:`repro.resilience`).  These describe the *harness*, not
#: the simulated machine, so ``cycle`` carries the batch job index and
#: ``service`` the fault kind / failure reason instead of tile state.
EV_FAULT = "fault"              #: chaos fault injected (service = kind)
EV_RETRY = "retry"              #: job rescheduled (value = attempt number)
EV_QUARANTINE = "quarantine"    #: corrupt cache blob moved aside
EV_POOL_REBUILD = "pool_rebuild"  #: broken/hung worker pool replaced
EV_DEGRADED = "degraded"        #: engine fell back to serial execution

#: Device-reliability kinds published by the bank's fault model
#: (:mod:`repro.memsys.reliability`).  ``write_retry`` rides on the
#: write pulse it extends (``value`` = extra pulses, ``bits`` = extra
#: bits driven); ``maintenance`` is a background wear-leveling row
#: migration occupying its tile like a write; ``tile_retired`` marks a
#: (SAG, CD) tile leaving service (``value`` 1 = spare swapped in at
#: the same coordinates, 0 = remapped onto a surviving tile).
EV_WRITE_RETRY = "write_retry"  #: verify failed, write re-pulsed
EV_MAINT = "maintenance"        #: background wear-leveling migration
EV_TILE_RETIRED = "tile_retired"  #: tile retired (spare or remap)

#: Live-telemetry kind published by the drift detector
#: (:mod:`repro.obs.drift`): a streamed epoch series left its committed
#: golden envelope, or the harness showed an anomaly (retry storm,
#: starved workers).  ``service`` names the anomaly kind, ``cycle``
#: carries the offending epoch index (or 0 for harness anomalies) and
#: ``value`` the observed magnitude scaled by 1e6 where fractional.
EV_DRIFT = "drift"              #: live series left its golden envelope

EVENT_KINDS = (
    EV_ENQUEUE, EV_ISSUE, EV_SENSE, EV_WRITE_PULSE, EV_QUEUE_STALL,
    EV_DRAIN, EV_COMPLETE, EV_CPU_STALL, EV_RUN_END,
    EV_SPAN, EV_BLAME,
    EV_FAULT, EV_RETRY, EV_QUARANTINE, EV_POOL_REBUILD, EV_DEGRADED,
    EV_WRITE_RETRY, EV_MAINT, EV_TILE_RETIRED,
    EV_DRIFT,
)


@dataclass(frozen=True, slots=True)
class Event:
    """One structured simulation event.

    Only ``kind`` and ``cycle`` are always meaningful; the remaining
    fields default to sentinels and each kind fills in what it has:

    * ``end`` — occupancy end cycle for tile-occupying kinds
      (``issue``, ``write_pulse``); ``-1`` for instantaneous events,
    * ``req_id`` / ``op`` / ``service`` — request identity, R/W, and
      the service classification (``row_hit`` / ``underfetch`` / ...),
    * ``channel`` / ``bank`` / ``sag`` / ``cd`` — where in the machine,
    * ``bits`` — bits sensed or driven,
    * ``overlap_reads`` / ``overlap_writes`` — concurrent operations in
      other tiles of the same bank at issue time (the paper's
      Multi-Activation / Backgrounded-Writes evidence),
    * ``value`` — kind-specific payload: completion latency, queue
      depth on a stall, drain direction, retired instructions.
    """

    kind: str
    cycle: int
    end: int = -1
    req_id: int = -1
    op: str = ""
    service: str = ""
    channel: int = -1
    bank: int = -1
    sag: int = -1
    cd: int = -1
    bits: int = 0
    overlap_reads: int = 0
    overlap_writes: int = 0
    value: int = 0

    @property
    def duration(self) -> int:
        """Occupancy length in cycles (0 for instantaneous events)."""
        return max(0, self.end - self.cycle) if self.end >= 0 else 0

    @property
    def tile(self) -> Tuple[int, int]:
        """(SAG, CD) coordinates (may be (-1, -1) for non-tile events)."""
        return (self.sag, self.cd)


#: Field defaults, used to strip sentinel values from serialized events.
EVENT_DEFAULTS: Dict[str, object] = {
    f.name: f.default for f in fields(Event) if f.name not in ("kind", "cycle")
}


class EventSink(Protocol):
    """Anything that can consume the event stream."""

    def on_event(self, event: Event) -> None:
        """Handle one published event."""


class Probe:
    """The one instrumentation object the simulator stack takes.

    A probe carries up to three hooks: an event ``sink`` (``enabled``
    is True exactly when one is attached), a request ``tracer``
    (:class:`repro.obs.trace.RequestTracer` or None) and an ``on_epoch``
    tap (``sample -> None`` or None) for live epoch samples.  Hot paths
    must guard with ``if probe.enabled:`` *before* constructing an
    :class:`Event`, so a sinkless probe costs one attribute load and
    one branch per call site.
    """

    __slots__ = ("sink", "enabled", "tracer", "on_epoch")

    def __init__(self, sink: Optional[EventSink] = None,
                 tracer: "RequestTracer | None" = None,
                 on_epoch: Optional[Callable[[object], None]] = None):
        self.sink = sink
        self.enabled = sink is not None
        self.tracer = tracer
        self.on_epoch = on_epoch

    def emit(self, event: Event) -> None:
        if self.enabled:
            self.sink.on_event(event)


#: The shared hookless probe every component defaults to.
NULL_PROBE = Probe(None)


def make_probe(*sinks: EventSink, tracer: "RequestTracer | None" = None,
               on_epoch: Optional[Callable[[object], None]] = None
               ) -> Probe:
    """A probe feeding zero, one or several sinks, plus the optional
    request tracer and epoch tap (:data:`NULL_PROBE` when all are absent)."""
    live = [s for s in sinks if s is not None]
    if not live and tracer is None and on_epoch is None:
        return NULL_PROBE
    if len(live) > 1:
        live = [TeeSink(live)]
    return Probe(live[0] if live else None, tracer=tracer, on_epoch=on_epoch)


class ListSink:
    """Collect every event in order (tests and exporters)."""

    def __init__(self):
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class TeeSink:
    """Fan one event stream out to several sinks."""

    def __init__(self, sinks: Sequence[EventSink]):
        self.sinks = list(sinks)

    def on_event(self, event: Event) -> None:
        for sink in self.sinks:
            sink.on_event(event)


class TimelineSink:
    """Build :data:`repro.sim.timeline.TimelineEvent` tuples from issues.

    The ASCII renderers (:func:`repro.sim.timeline.render_timeline`
    and :func:`~repro.sim.timeline.overlap_summary`) consume
    ``(start, end, sag, cd, kind)`` tuples; this sink builds that shape
    from the ``issue`` events of the structured stream, so the
    renderers are thin consumers of the event bus.
    """

    def __init__(self):
        self.events: List[Tuple[int, int, int, int, str]] = []

    def on_event(self, event: Event) -> None:
        if event.kind == EV_ISSUE and event.sag >= 0 and event.cd >= 0:
            self.events.append(
                (event.cycle, event.end, event.sag, event.cd, event.service)
            )


def tile_events(events: Iterable[Event]
                ) -> List[Tuple[int, int, int, int, str]]:
    """Timeline tuples for the tile-occupying events of a stream."""
    sink = TimelineSink()
    for event in events:
        sink.on_event(event)
    return sink.events
