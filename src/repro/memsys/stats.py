"""Simulation statistics collection.

One :class:`StatsCollector` per simulated system gathers everything the
paper's figures need:

* request counts by kind (hit / underfetch / miss / write),
* sense events and sensed bits (Figure 5's energy accounting),
* parallelism events — senses overlapping other senses
  (Multi-Activation) and reads issued under an in-progress write
  (Backgrounded Writes),
* read latency distribution and queueing behaviour,
* cycle and instruction counts for IPC.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

#: Latency histogram bucket edges, in memory cycles.
LATENCY_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024, 1 << 62)

#: Percentiles reported from the bucketed histogram.
LATENCY_PERCENTILES = (50, 95, 99)


def histogram_percentile(histogram: "List[int]", percent: float,
                         observed_max: int = 0) -> int:
    """Bucket-resolution percentile from ``latency_le_*`` counts.

    Returns the upper edge of the bucket the percentile falls in —
    i.e. "p95 of reads completed within N cycles" — which is exactly
    what a bucketed histogram can support.  The open-ended last bucket
    reports ``observed_max`` (the tracked maximum) instead of the
    sentinel edge.  Shared with the metric registry so event-derived
    percentiles stay key-for-key equal to the collector's.
    """
    total = sum(histogram)
    if total == 0:
        return 0
    threshold = percent / 100.0 * total
    cumulative = 0
    for edge, count in zip(LATENCY_BUCKETS, histogram):
        cumulative += count
        if cumulative >= threshold:
            return observed_max if edge == LATENCY_BUCKETS[-1] else edge
    return observed_max


@dataclass
class StatsCollector:
    """Mutable counters updated on the simulator's hot path.

    The per-issue counters (request mix, senses, parallelism events)
    are plain fields the bank model increments where it issues; the
    methods below cover the rarer events and the latency histogram.
    """

    # Request mix.
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    underfetches: int = 0

    # Energy-relevant events.
    senses: int = 0
    sense_bits: int = 0
    write_bits: int = 0

    # Parallelism events.
    multi_activation_senses: int = 0
    reads_under_write: int = 0
    writes_overlapped: int = 0

    # Latency.
    read_latency_sum: int = 0
    read_latency_max: int = 0
    latency_histogram: List[int] = field(
        default_factory=lambda: [0] * len(LATENCY_BUCKETS)
    )

    # Queueing.
    read_queue_full_events: int = 0
    write_queue_full_events: int = 0
    write_drain_entries: int = 0

    # Device reliability (repro.memsys.reliability; all zero when the
    # fault model is disabled).
    write_retries: int = 0
    write_verify_failures: int = 0
    maintenance_ops: int = 0
    maintenance_cycles: int = 0
    tiles_retired: int = 0
    spares_consumed: int = 0
    max_tile_wear: int = 0

    # Progress.
    cycles: int = 0
    instructions: int = 0

    def reset(self) -> None:
        """Zero every counter in place (end-of-warmup)."""
        fresh = StatsCollector()
        for name, value in vars(fresh).items():
            setattr(self, name, value)

    # -- updates ------------------------------------------------------------

    def count_write_retry(self, retries: int, exhausted: bool) -> None:
        """Verify-retry pulses for one write (device fault model)."""
        self.write_retries += retries
        if exhausted:
            self.write_verify_failures += 1

    def count_maintenance(self, cycles: int) -> None:
        """One background wear-leveling migration holding its tile."""
        self.maintenance_ops += 1
        self.maintenance_cycles += cycles

    def count_retirement(self, spare_used: bool) -> None:
        """One tile retired (spare swap or remap onto a survivor)."""
        self.tiles_retired += 1
        if spare_used:
            self.spares_consumed += 1

    def note_tile_wear(self, wear: int) -> None:
        """Track the most-worn tile seen across the system's banks."""
        if wear > self.max_tile_wear:
            self.max_tile_wear = wear

    def count_read_latency(self, latency: int) -> None:
        self.read_latency_sum += latency
        if latency > self.read_latency_max:
            self.read_latency_max = latency
        # bisect_left finds the first edge >= latency — the identical
        # bucket the linear `latency <= edge` scan selected.
        self.latency_histogram[bisect_left(LATENCY_BUCKETS, latency)] += 1

    def count_read_latency_batch(self, latencies: "Iterable[int]") -> None:
        """Fold a burst of completed-read latencies in one call.

        Equivalent to calling :meth:`count_read_latency` per element;
        the controller hands over every read completing in one cycle so
        the histogram update runs once per drain, not once per request.
        """
        histogram = self.latency_histogram
        maximum = self.read_latency_max
        total = 0
        for latency in latencies:
            total += latency
            if latency > maximum:
                maximum = latency
            histogram[bisect_left(LATENCY_BUCKETS, latency)] += 1
        self.read_latency_sum += total
        self.read_latency_max = maximum

    # -- derived metrics ----------------------------------------------------

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.reads if self.reads else 0.0

    @property
    def underfetch_rate(self) -> float:
        return self.underfetches / self.reads if self.reads else 0.0

    @property
    def avg_read_latency(self) -> float:
        return self.read_latency_sum / self.reads if self.reads else 0.0

    def latency_percentile(self, percent: float) -> int:
        """Bucket-resolution read-latency percentile (cycles)."""
        return histogram_percentile(
            self.latency_histogram, percent, self.read_latency_max
        )

    def ipc(self, cpu_cycles_per_mem_cycle: float) -> float:
        """Instructions per CPU cycle over the simulated interval."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / (self.cycles * cpu_cycles_per_mem_cycle)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary for reporting and EXPERIMENTS.md tables."""
        data = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "underfetches": self.underfetches,
            "row_hit_rate": round(self.row_hit_rate, 4),
            "underfetch_rate": round(self.underfetch_rate, 4),
            "senses": self.senses,
            "sense_bits": self.sense_bits,
            "write_bits": self.write_bits,
            "multi_activation_senses": self.multi_activation_senses,
            "reads_under_write": self.reads_under_write,
            "writes_overlapped": self.writes_overlapped,
            "avg_read_latency_cycles": round(self.avg_read_latency, 2),
            "max_read_latency_cycles": self.read_latency_max,
            "read_queue_full_events": self.read_queue_full_events,
            "write_queue_full_events": self.write_queue_full_events,
            "write_drain_entries": self.write_drain_entries,
            "write_retries": self.write_retries,
            "write_verify_failures": self.write_verify_failures,
            "maintenance_ops": self.maintenance_ops,
            "maintenance_cycles": self.maintenance_cycles,
            "tiles_retired": self.tiles_retired,
            "spares_consumed": self.spares_consumed,
            "max_tile_wear": self.max_tile_wear,
        }
        for edge, count in zip(LATENCY_BUCKETS, self.latency_histogram):
            label = "inf" if edge == LATENCY_BUCKETS[-1] else str(edge)
            data[f"latency_le_{label}"] = count
        for percent in LATENCY_PERCENTILES:
            data[f"read_latency_p{percent}"] = self.latency_percentile(
                percent
            )
        return data
