"""Structured observability: event bus, metric registry, exporters.

The instrumentation layer for the whole reproduction:

* :mod:`repro.obs.events` — the :class:`Event` wire format, the
  :class:`Probe`/:class:`EventSink` bus (no-op when nothing listens),
  and stock sinks (list, tee, timeline),
* :mod:`repro.obs.registry` — hierarchical per-tile / per-SAG / per-CD
  / per-run metric aggregation from the event stream,
* :mod:`repro.obs.export` — JSONL event logs and Chrome-trace/Perfetto
  JSON (``--emit-trace``),
* :mod:`repro.obs.inspect` — post-hoc trace analysis
  (``repro inspect <trace>``),
* :mod:`repro.obs.manifest` — run provenance records written alongside
  cached results,
* :mod:`repro.obs.perf` — performance observability for the simulator
  itself: phase profiler (``repro profile``), the ``BENCH_PERF.json``
  throughput ledger (``repro perf record``), and the noise-aware
  regression gate (``repro perf compare``),
* :mod:`repro.obs.stream` — live telemetry frames: bounded,
  drop-counting, schema-versioned snapshots streamed from pool workers
  while a sweep is in flight,
* :mod:`repro.obs.hub` — the supervisor-side fold of that stream:
  ``repro watch`` dashboards, snapshots and the ``telemetry.jsonl``
  spool,
* :mod:`repro.obs.drift` — live epoch series checked against committed
  golden envelopes (IPC collapse, retry storms, starved workers).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "events": (
        "EV_BLAME", "EV_COMPLETE", "EV_CPU_STALL", "EV_DEGRADED",
        "EV_DRAIN", "EV_DRIFT", "EV_ENQUEUE", "EV_FAULT", "EV_ISSUE",
        "EV_MAINT", "EV_POOL_REBUILD", "EV_QUARANTINE", "EV_QUEUE_STALL",
        "EV_RETRY", "EV_RUN_END", "EV_SENSE", "EV_SPAN", "EV_TILE_RETIRED",
        "EV_WRITE_PULSE", "EV_WRITE_RETRY", "EVENT_KINDS", "NULL_PROBE",
        "Event", "EventSink", "ListSink", "Probe", "TeeSink",
        "TimelineSink", "make_probe", "tile_events",
    ),
    "export": (
        "JSONL_SCHEMA", "JsonlEventSink", "chrome_trace",
        "event_from_json", "event_to_json", "export_events",
        "read_events_jsonl", "write_chrome_trace", "write_events_jsonl",
    ),
    "inspect": (
        "inspect_engine", "inspect_trace", "load_events",
        "render_engine_report", "render_inspection", "summarize_events",
        "summarize_manifest",
    ),
    "manifest": (
        "MANIFEST_SCHEMA", "JobRecord", "RunManifest", "read_manifest",
    ),
    "perf": (
        "ComparisonReport", "PerfEntry", "PerfLedger", "PerfLedgerError",
        "PhaseTimer", "compare_ledgers", "fold_manifest", "phase_table",
        "read_ledger",
    ),
    "registry": ("MetricRegistry", "RunMetrics", "TileMetrics", "tile_label"),
    "stream": (
        "FR_DRIFT", "FR_ENGINE", "FR_EPOCH", "FR_JOB_END", "FR_JOB_START",
        "FRAME_KINDS", "FRAME_SCHEMA", "TelemetryChannel",
        "TelemetryFrame", "activate", "active_channel", "frame_from_json",
        "frame_to_json", "read_spool", "validate_frame",
    ),
    "hub": (
        "SNAPSHOT_SCHEMA", "SPOOL_NAME", "FleetView", "JobView",
        "TelemetryHub", "render_dashboard",
    ),
    "drift": (
        "DRIFT_IPC_HIGH", "DRIFT_IPC_LOW", "DRIFT_KINDS",
        "DRIFT_RETRY_STORM", "DRIFT_STARVED", "ENVELOPE_SCHEMA",
        "DriftDetector", "DriftEnvelope", "DriftFinding",
        "envelope_from_samples", "read_envelopes", "write_envelopes",
    ),
    "trace": (
        "BLAME_BUS", "BLAME_CAUSES", "BLAME_DRAIN", "BLAME_MAINT",
        "BLAME_MULTI_ACT", "BLAME_QUEUE_FULL", "BLAME_RUW", "BLAME_SCHED",
        "BLAME_SERVICE", "BLAME_TILE", "BLAME_WRITE_CAP",
        "BLAME_WRITE_RETRY", "RequestSpan", "RequestTracer",
        "blame_report", "emit_span", "render_blame", "seed_from_digest",
        "span_to_events", "spans_from_events",
    ),
})
