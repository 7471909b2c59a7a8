"""Hierarchical metric registry: aggregate the event stream by tile.

The :class:`MetricRegistry` is an :class:`~repro.obs.events.EventSink`
that rebuilds every figure-relevant aggregate from events alone —
per-tile, per-SAG, per-CD, and per-run (benchmark) — instead of the
hand-maintained counter plumbing of :mod:`repro.memsys.stats`.  The
:class:`~repro.memsys.stats.StatsCollector` remains the hot-path
implementation (it is cheap and golden-pinned); the registry is the
*view* layer, and :meth:`RunMetrics.as_dict` reproduces the collector's
``as_dict()`` keys so the two can be cross-checked event-for-counter
(see ``tests/obs/test_registry.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..memsys.stats import (
    LATENCY_BUCKETS,
    LATENCY_PERCENTILES,
    histogram_percentile,
)
from .events import (
    EV_COMPLETE,
    EV_DRAIN,
    EV_ENQUEUE,
    EV_ISSUE,
    EV_QUEUE_STALL,
    EV_RUN_END,
    EV_SENSE,
    EV_WRITE_PULSE,
    Event,
)

#: A tile's global coordinates: (channel, bank, sag, cd).
TileKey = Tuple[int, int, int, int]

_READ_KINDS = ("row_hit", "underfetch", "row_miss", "forwarded")
_WRITE_KINDS = ("write", "write_miss")


def tile_label(key: TileKey) -> str:
    channel, bank, sag, cd = key
    return f"ch{channel}/bank{bank}/SAG{sag}/CD{cd}"


@dataclass
class TileMetrics:
    """Aggregates for one (channel, bank, SAG, CD) tile."""

    issues: Counter = field(default_factory=Counter)
    busy_cycles: int = 0
    senses: int = 0
    sense_bits: int = 0
    write_pulses: int = 0
    write_bits: int = 0
    first_cycle: int = -1
    last_cycle: int = -1

    def observe_issue(self, event: Event) -> None:
        self.issues[event.service] += 1
        self.busy_cycles += event.duration
        if self.first_cycle < 0 or event.cycle < self.first_cycle:
            self.first_cycle = event.cycle
        if event.end > self.last_cycle:
            self.last_cycle = event.end

    @property
    def operations(self) -> int:
        return sum(self.issues.values())

    def occupancy(self, span_cycles: int) -> float:
        """Fraction of the observed span this tile was busy."""
        return self.busy_cycles / span_cycles if span_cycles > 0 else 0.0

    def as_dict(self) -> Dict[str, int]:
        data = {f"issues_{kind}": count
                for kind, count in sorted(self.issues.items())}
        data.update(
            busy_cycles=self.busy_cycles,
            senses=self.senses,
            sense_bits=self.sense_bits,
            write_pulses=self.write_pulses,
            write_bits=self.write_bits,
        )
        return data


@dataclass
class RunMetrics:
    """Event-derived aggregates for one run (benchmark) label."""

    label: str = "run"
    tiles: Dict[TileKey, TileMetrics] = field(default_factory=dict)
    issues: Counter = field(default_factory=Counter)
    senses: int = 0
    sense_bits: int = 0
    write_bits: int = 0
    multi_activation_senses: int = 0
    reads_under_write: int = 0
    writes_overlapped: int = 0
    reads_under_write_hits: int = 0
    enqueued: int = 0
    completed_reads: int = 0
    read_latency_sum: int = 0
    read_latency_max: int = 0
    #: Same bucket edges as :data:`repro.memsys.stats.LATENCY_BUCKETS`,
    #: rebuilt from ``complete`` events, so percentiles stay
    #: key-for-key equal to the collector's.
    latency_histogram: List[int] = field(
        default_factory=lambda: [0] * len(LATENCY_BUCKETS)
    )
    read_queue_full_events: int = 0
    write_queue_full_events: int = 0
    drains_started: int = 0
    cycles: int = 0
    instructions: int = 0
    first_cycle: int = -1
    last_cycle: int = 0

    # -- event intake -------------------------------------------------------

    def observe(self, event: Event) -> None:
        if self.first_cycle < 0 or event.cycle < self.first_cycle:
            self.first_cycle = event.cycle
        if event.cycle > self.last_cycle:
            self.last_cycle = event.cycle
        if event.end > self.last_cycle:
            self.last_cycle = event.end

        kind = event.kind
        if kind == EV_ISSUE:
            if event.sag >= 0 and event.cd >= 0:
                tile = self.tiles.setdefault(
                    (event.channel, event.bank, event.sag, event.cd),
                    TileMetrics(),
                )
                tile.observe_issue(event)
            # One logical request spans cd_span tiles; count it once, on
            # its base tile (the bank emits the base CD first).
            if not event.value:
                self.issues[event.service] += 1
                if (event.service == "row_hit" and event.overlap_writes):
                    self.reads_under_write_hits += 1
                if event.service in _WRITE_KINDS and (
                        event.overlap_reads or event.overlap_writes):
                    self.writes_overlapped += 1
        elif kind == EV_SENSE:
            self.senses += 1
            self.sense_bits += event.bits
            if event.overlap_reads:
                self.multi_activation_senses += 1
            if event.overlap_writes:
                self.reads_under_write += 1
            tile = self.tiles.get(
                (event.channel, event.bank, event.sag, event.cd)
            )
            if tile is not None:
                tile.senses += 1
                tile.sense_bits += event.bits
        elif kind == EV_WRITE_PULSE:
            self.write_bits += event.bits
            tile = self.tiles.get(
                (event.channel, event.bank, event.sag, event.cd)
            )
            if tile is not None:
                tile.write_pulses += 1
                tile.write_bits += event.bits
        elif kind == EV_COMPLETE:
            if event.op == "R":
                self.completed_reads += 1
                self.read_latency_sum += event.value
                if event.value > self.read_latency_max:
                    self.read_latency_max = event.value
                for index, edge in enumerate(LATENCY_BUCKETS):
                    if event.value <= edge:
                        self.latency_histogram[index] += 1
                        break
        elif kind == EV_QUEUE_STALL:
            if event.op == "R":
                self.read_queue_full_events += 1
            else:
                self.write_queue_full_events += 1
        elif kind == EV_DRAIN:
            if event.value:
                self.drains_started += 1
        elif kind == EV_ENQUEUE:
            self.enqueued += 1
        elif kind == EV_RUN_END:
            self.cycles = event.cycle
            self.instructions = event.value

    # -- derived views ------------------------------------------------------

    @property
    def reads(self) -> int:
        return sum(self.issues[k] for k in _READ_KINDS)

    @property
    def writes(self) -> int:
        return sum(self.issues[k] for k in _WRITE_KINDS)

    @property
    def row_hits(self) -> int:
        return self.issues["row_hit"] + self.issues["forwarded"]

    @property
    def span_cycles(self) -> int:
        if self.first_cycle < 0:
            return 0
        return max(1, self.last_cycle - self.first_cycle)

    def per_sag(self) -> Dict[int, TileMetrics]:
        """Roll tiles up along the SAG axis."""
        return self._rollup(axis=2)

    def per_cd(self) -> Dict[int, TileMetrics]:
        """Roll tiles up along the CD axis."""
        return self._rollup(axis=3)

    def _rollup(self, axis: int) -> Dict[int, TileMetrics]:
        rolled: Dict[int, TileMetrics] = {}
        for key, tile in sorted(self.tiles.items()):
            bucket = rolled.setdefault(key[axis], TileMetrics())
            bucket.issues.update(tile.issues)
            bucket.busy_cycles += tile.busy_cycles
            bucket.senses += tile.senses
            bucket.sense_bits += tile.sense_bits
            bucket.write_pulses += tile.write_pulses
            bucket.write_bits += tile.write_bits
        return rolled

    def as_dict(self) -> Dict[str, float]:
        """The :meth:`StatsCollector.as_dict`-compatible counter view.

        Keys match the collector's where the event stream carries the
        same information; ``reads_under_write`` combines the sense-level
        and buffered-hit cases exactly as the collector does.
        """
        reads = self.reads
        row_hits = self.row_hits
        underfetches = self.issues["underfetch"]
        avg_latency = (
            self.read_latency_sum / self.completed_reads
            if self.completed_reads else 0.0
        )
        data = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "reads": reads,
            "writes": self.writes,
            "row_hits": row_hits,
            "row_misses": self.issues["row_miss"],
            "underfetches": underfetches,
            "row_hit_rate": round(row_hits / reads, 4) if reads else 0.0,
            "underfetch_rate": (
                round(underfetches / reads, 4) if reads else 0.0
            ),
            "senses": self.senses,
            "sense_bits": self.sense_bits,
            "write_bits": self.write_bits,
            "multi_activation_senses": self.multi_activation_senses,
            "reads_under_write": (
                self.reads_under_write + self.reads_under_write_hits
            ),
            "read_queue_full_events": self.read_queue_full_events,
            "write_queue_full_events": self.write_queue_full_events,
            "avg_read_latency_cycles": round(avg_latency, 2),
            "max_read_latency_cycles": self.read_latency_max,
        }
        for edge, count in zip(LATENCY_BUCKETS, self.latency_histogram):
            label = "inf" if edge == LATENCY_BUCKETS[-1] else str(edge)
            data[f"latency_le_{label}"] = count
        for percent in LATENCY_PERCENTILES:
            data[f"read_latency_p{percent}"] = histogram_percentile(
                self.latency_histogram, percent, self.read_latency_max
            )
        return data


class MetricRegistry:
    """Event sink aggregating per-tile, per-SAG, per-CD and per-run.

    One registry can span several simulations: call :meth:`begin_run`
    with a benchmark label before each, and every event lands in that
    run's :class:`RunMetrics` (plus the registry-wide totals).
    """

    def __init__(self, label: str = "run"):
        self.runs: Dict[str, RunMetrics] = {}
        self.current = self._run(label)
        self.events_seen = 0

    def _run(self, label: str) -> RunMetrics:
        if label not in self.runs:
            self.runs[label] = RunMetrics(label=label)
        return self.runs[label]

    def begin_run(self, label: str) -> RunMetrics:
        """Direct subsequent events to the run named ``label``."""
        self.current = self._run(label)
        return self.current

    def on_event(self, event: Event) -> None:
        self.events_seen += 1
        self.current.observe(event)

    # -- convenience views over the current run -----------------------------

    def as_dict(self) -> Dict[str, float]:
        return self.current.as_dict()

    def summary(self) -> Dict[str, object]:
        """Nested registry dump (metrics files, ``--emit-metrics``)."""
        return {
            "events_seen": self.events_seen,
            "runs": {
                label: {
                    "totals": run.as_dict(),
                    "span_cycles": run.span_cycles,
                    "drains_started": run.drains_started,
                    "tiles": {
                        tile_label(key): tile.as_dict()
                        for key, tile in sorted(run.tiles.items())
                    },
                    "per_sag": {
                        f"SAG{sag}": tile.as_dict()
                        for sag, tile in sorted(run.per_sag().items())
                    },
                    "per_cd": {
                        f"CD{cd}": tile.as_dict()
                        for cd, tile in sorted(run.per_cd().items())
                    },
                }
                for label, run in sorted(self.runs.items())
            },
        }
