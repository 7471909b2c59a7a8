"""Post-hoc trace analysis: ``repro inspect <trace>``.

Everything here works from an exported event log alone — no simulator
state, no configs — so a trace captured on one machine is explainable on
another.  The summary answers the paper's three questions directly:
which tiles did the work (per-tile occupancy), how much Multi-Activation
overlap happened, and how many cycles of reads ran under write pulses.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ReproError
from .events import (
    EV_ISSUE,
    EV_MAINT,
    EV_TILE_RETIRED,
    EV_WRITE_RETRY,
    Event,
    tile_events,
)
from .export import read_events_jsonl
from .registry import MetricRegistry
from .trace import blame_report, render_blame, spans_from_events


def load_events(path: "str | os.PathLike[str]") -> List[Event]:
    """Load an event log: JSONL directly, Chrome trace by reconstruction.

    Chrome traces preserve the tile slices (``ph == "X"``) with their
    request ids and service kinds, which is all the occupancy analysis
    needs; the JSONL log is lossless and preferred.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        head = handle.read(2048).lstrip()
    if head.startswith("{") and '"traceEvents"' in head:
        return _events_from_chrome(path)
    return read_events_jsonl(path)


def _events_from_chrome(path: Path) -> List[Event]:
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    lanes: Dict[tuple, str] = {}
    processes: Dict[int, str] = {}
    events: List[Event] = []
    for entry in payload.get("traceEvents", []):
        if entry.get("ph") == "M":
            if entry.get("name") == "thread_name":
                lanes[(entry["pid"], entry["tid"])] = entry["args"]["name"]
            elif entry.get("name") == "process_name":
                processes[entry["pid"]] = entry["args"]["name"]
    for entry in payload.get("traceEvents", []):
        if entry.get("ph") != "X":
            continue
        lane = lanes.get((entry["pid"], entry.get("tid")), "")
        if not lane.startswith("SAG"):
            continue
        sag_part, cd_part = lane.split("/")
        process = processes.get(entry["pid"], "ch0/bank0")
        channel = int(process.split("/")[0][2:])
        bank = int(process.split("/")[1][4:])
        events.append(Event(
            kind=EV_ISSUE,
            cycle=int(entry["ts"]),
            end=int(entry["ts"]) + int(entry.get("dur", 1)),
            req_id=entry.get("args", {}).get("req_id", -1),
            op=entry.get("cat", ""),
            service=entry.get("args", {}).get("service", entry.get("name", "")),
            channel=channel,
            bank=bank,
            sag=int(sag_part[3:]),
            cd=int(cd_part[2:]),
        ))
    if not events:
        raise ReproError(f"{path}: no tile events found in Chrome trace")
    return events


def summarize_events(events: List[Event]) -> Dict[str, object]:
    """The inspection report as data (rendered by :func:`render_inspection`)."""
    # Imported lazily: repro.sim pulls in the whole simulation stack,
    # which itself publishes through repro.obs — keep this module a leaf.
    from ..sim.timeline import overlap_summary

    registry = MetricRegistry(label="trace")
    for event in events:
        registry.on_event(event)
    run = registry.current
    # Multi-Activation and read-under-write are within-bank effects:
    # count them per (channel, bank) so two banks' operations never
    # pass for tile-level parallelism; busy cycles stay the union.
    banks: Dict[tuple, List[Event]] = {}
    for event in events:
        banks.setdefault((event.channel, event.bank), []).append(event)
    per_bank = [overlap_summary(tile_events(group))
                for group in banks.values()]
    span = run.span_cycles
    kinds = Counter(e.kind for e in events)
    per_tile = {
        f"ch{key[0]}/bank{key[1]}/SAG{key[2]}/CD{key[3]}": {
            "operations": tile.operations,
            "busy_cycles": tile.busy_cycles,
            "occupancy": round(tile.occupancy(span), 4),
            "issues": dict(sorted(tile.issues.items())),
        }
        for key, tile in sorted(run.tiles.items())
    }
    summary = {
        "events": len(events),
        "event_kinds": dict(sorted(kinds.items())),
        "span_cycles": span,
        "first_cycle": max(0, run.first_cycle),
        "last_cycle": run.last_cycle,
        "tiles": per_tile,
        "busy_cycles": overlap_summary(tile_events(events))["busy"],
        "multi_activation_cycles": sum(b["multi_activation"] for b in per_bank),
        "read_under_write_cycles": sum(b["read_under_write"] for b in per_bank),
        "read_queue_full_events": run.read_queue_full_events,
        "write_queue_full_events": run.write_queue_full_events,
        "drains_started": run.drains_started,
        "totals": run.as_dict(),
    }
    reliability = _reliability_summary(events)
    if reliability:
        summary["reliability"] = reliability
    # Sampled request spans ride in the same trace file; when present
    # the blame decomposition is part of the summary (so ``--json``
    # carries the new event kinds instead of dropping them).
    request_spans = spans_from_events(events)
    if request_spans:
        summary["blame"] = blame_report(request_spans)
    return summary


def _reliability_summary(events: List[Event]) -> Dict[str, int]:
    """Device fault-model counters rebuilt from the event stream.

    Empty (and omitted from the report) for traces recorded with the
    reliability model off — the common case stays byte-identical.
    """
    counters = {
        "write_retries": 0, "writes_retried": 0,
        "maintenance_ops": 0, "maintenance_cycles": 0,
        "tiles_retired": 0, "spares_consumed": 0,
    }
    seen = False
    for event in events:
        if event.kind == EV_WRITE_RETRY:
            counters["write_retries"] += event.value
            counters["writes_retried"] += 1
            seen = True
        elif event.kind == EV_MAINT:
            counters["maintenance_ops"] += 1
            counters["maintenance_cycles"] += event.end - event.cycle
            seen = True
        elif event.kind == EV_TILE_RETIRED:
            counters["tiles_retired"] += 1
            counters["spares_consumed"] += 1 if event.value else 0
            seen = True
    return counters if seen else {}


def render_inspection(summary: Dict[str, object],
                      events: Optional[List[Event]] = None,
                      timeline_width: int = 0,
                      blame: bool = False) -> str:
    """Human-readable inspection report (plus an optional timeline)."""
    lines = [
        f"events: {summary['events']} "
        f"({', '.join(f'{k}={v}' for k, v in summary['event_kinds'].items())})",
        f"span: cycles {summary['first_cycle']}..{summary['last_cycle']} "
        f"({summary['span_cycles']} cycles)",
        "",
        "per-tile occupancy:",
    ]
    tiles: Dict[str, Dict[str, object]] = summary["tiles"]
    if not tiles:
        lines.append("  (no tile events)")
    width = max((len(label) for label in tiles), default=0)
    for label, tile in tiles.items():
        mix = " ".join(
            f"{kind}={count}" for kind, count in tile["issues"].items()
        )
        lines.append(
            f"  {label.ljust(width)}  {tile['occupancy']:>7.1%} busy "
            f"({tile['busy_cycles']} cy, {tile['operations']} ops: {mix})"
        )
    lines += [
        "",
        "parallelism (cycle-weighted):",
        f"  any tile busy:        {summary['busy_cycles']} cy",
        f"  multi-activation:     {summary['multi_activation_cycles']} cy",
        f"  reads under writes:   {summary['read_under_write_cycles']} cy",
        "",
        "controller:",
        f"  read-queue-full events:  {summary['read_queue_full_events']}",
        f"  write-queue-full events: {summary['write_queue_full_events']}",
        f"  write drains started:    {summary['drains_started']}",
    ]
    reliability = summary.get("reliability")
    if reliability:
        lines += [
            "",
            "device reliability:",
            f"  write retries:        {reliability['write_retries']} "
            f"(over {reliability['writes_retried']} writes)",
            f"  maintenance:          {reliability['maintenance_ops']} ops, "
            f"{reliability['maintenance_cycles']} cy",
            f"  tiles retired:        {reliability['tiles_retired']} "
            f"({reliability['spares_consumed']} onto spares)",
        ]
    report = summary.get("blame")
    if report is not None:
        if blame:
            lines += ["", render_blame(report)]
        else:
            lines += [
                "",
                f"request spans: {report['spans']} sampled "
                f"(mean latency {report['mean_latency']} cy; "
                f"--blame for the full decomposition)",
            ]
    elif blame:
        lines += ["", "latency blame: no request spans in this trace "
                      "(record one with repro run --trace-sample)"]
    if timeline_width and events:
        from ..sim.timeline import render_timeline

        tiles_log = tile_events(events)
        if tiles_log:
            lines += ["", render_timeline(tiles_log, width=timeline_width)]
    return "\n".join(lines)


def inspect_trace(path: "str | os.PathLike[str]",
                  timeline_width: int = 0,
                  blame: bool = False) -> str:
    """Load, summarize and render a trace file in one call."""
    events = load_events(path)
    return render_inspection(
        summarize_events(events), events, timeline_width, blame=blame
    )


# -- engine fleet telemetry (run-manifest.json) -------------------------------


def summarize_manifest(data: Dict[str, object]) -> Dict[str, object]:
    """Fleet telemetry digest of one run manifest (``inspect --engine``).

    Works from the manifest JSON alone — the data every engine run
    already records (job sources and wall times, resilience counters,
    corrupt blobs) but no CLI surfaced until now.
    """
    jobs: List[Dict[str, object]] = data.get("jobs", [])
    by_source = Counter(job.get("source", "?") for job in jobs)
    by_config: Dict[str, Dict[str, float]] = {}
    for job in jobs:
        entry = by_config.setdefault(
            str(job.get("config", "?")),
            {"jobs": 0, "simulated": 0, "wall_s": 0.0},
        )
        entry["jobs"] += 1
        if job.get("source") == "simulated":
            entry["simulated"] += 1
        entry["wall_s"] += float(job.get("wall_s", 0.0))
    slowest = sorted(
        (job for job in jobs if job.get("source") == "simulated"),
        key=lambda job: -float(job.get("wall_s", 0.0)),
    )[:5]
    return {
        "schema": data.get("schema"),
        "code_version": data.get("code_version"),
        "host": data.get("host"),
        "created_utc": data.get("created_utc"),
        "workers": data.get("workers", 1),
        "wall_s": data.get("wall_s", 0.0),
        "busy_s": data.get("busy_s", 0.0),
        "worker_utilization": data.get("worker_utilization", 0.0),
        "interrupted": bool(data.get("interrupted", False)),
        "engine": data.get("engine", {}),
        "trace": data.get("trace", {}),
        "resilience": data.get("resilience", {}),
        "reliability": data.get("reliability", {}),
        "telemetry": data.get("telemetry", {}),
        "jobs": len(jobs),
        "by_source": dict(by_source),
        "by_config": by_config,
        "slowest": [
            {
                "config": job.get("config"),
                "benchmark": job.get("benchmark"),
                "requests": job.get("requests"),
                "wall_s": job.get("wall_s"),
            }
            for job in slowest
        ],
    }


def render_engine_report(summary: Dict[str, object]) -> str:
    """Human-readable fleet report for one summarized manifest."""
    engine: Dict[str, int] = summary.get("engine", {})
    lines = [
        f"run: {summary.get('code_version')} on {summary.get('host')} "
        f"at {summary.get('created_utc')}"
        + ("  [INTERRUPTED]" if summary.get("interrupted") else ""),
        f"fleet: {summary['jobs']} job(s) over "
        f"{summary.get('workers', 1)} worker(s)  "
        f"wall {float(summary.get('wall_s', 0.0)):.2f}s  "
        f"busy {float(summary.get('busy_s', 0.0)):.2f}s  "
        f"utilization {float(summary.get('worker_utilization', 0.0)):.1%}",
        "sources: " + (", ".join(
            f"{source}={count}"
            for source, count in sorted(summary["by_source"].items())
        ) or "(none)"),
    ]
    if engine:
        lines.append(
            f"cache: {engine.get('cache_hits', 0)} hit(s) "
            f"({engine.get('memory_hits', 0)} memory, "
            f"{engine.get('disk_hits', 0)} disk), "
            f"{engine.get('simulations', 0)} simulation(s), "
            f"{engine.get('corrupt_blobs', 0)} corrupt blob(s)"
        )
    trace: Dict[str, object] = summary.get("trace", {})
    if any(v for v in trace.values() if v):
        lines.append(
            f"traces: {trace.get('unique_traces', 0)} unique "
            f"({trace.get('packed_bytes', 0)} packed bytes), "
            f"{trace.get('trace_cache_hits', 0)} cache hit(s), "
            f"{trace.get('traces_generated', 0)} generated, "
            f"{trace.get('pooled_jobs', 0)} pooled / "
            f"{trace.get('inproc_jobs', 0)} in-process job(s)"
        )
    resilience: Dict[str, int] = summary.get("resilience", {})
    if any(resilience.values()):
        lines.append("resilience: " + ", ".join(
            f"{key}={value}" for key, value in sorted(resilience.items())
            if value
        ))
    reliability: Dict[str, int] = summary.get("reliability", {})
    if any(reliability.values()):
        lines.append("device reliability: " + ", ".join(
            f"{key}={value}" for key, value in sorted(reliability.items())
            if value
        ))
    telemetry: Dict[str, object] = summary.get("telemetry", {})
    if telemetry:
        drift = telemetry.get("drift", {}) or {}
        findings = drift.get("findings", []) if isinstance(drift, dict) else []
        lines.append(
            f"telemetry: {telemetry.get('frames_seen', 0)} frame(s), "
            f"{telemetry.get('dropped_frames', 0)} dropped, "
            f"{telemetry.get('jobs_streamed', 0)} job(s) streamed"
            + (f", spool {telemetry['spool']}"
               if telemetry.get("spool") else "")
        )
        for finding in findings:
            lines.append(
                f"  drift {finding.get('kind')}: {finding.get('detail')}"
            )
    if summary["by_config"]:
        lines.append("")
        lines.append("per-config:")
        width = max(len(name) for name in summary["by_config"])
        for name, entry in sorted(summary["by_config"].items()):
            lines.append(
                f"  {name.ljust(width)}  {entry['jobs']:>4} job(s)  "
                f"{entry['simulated']:>4} simulated  "
                f"{entry['wall_s']:8.2f}s"
            )
    if summary["slowest"]:
        lines.append("")
        lines.append("slowest simulations:")
        for job in summary["slowest"]:
            lines.append(
                f"  {job['config']}/{job['benchmark']}/{job['requests']}"
                f"  {float(job['wall_s']):.2f}s"
            )
    return "\n".join(lines)
