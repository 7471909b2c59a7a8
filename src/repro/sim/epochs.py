"""Epoch time series: how a run's behaviour evolves over time.

Enabling ``SimParams.epoch_cycles`` makes the simulator snapshot its
counters every N memory cycles, producing a time series of per-epoch
IPC, read throughput, hit rate and queue pressure.  Useful for spotting
phase behaviour (warm-up, drain storms, starvation) that end-of-run
averages hide.

:func:`sparkline` renders a series as a compact ASCII intensity strip;
:func:`epoch_table` gives the full numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..memsys.stats import StatsCollector
from .reporting import ascii_table

#: ASCII intensity ramp for sparklines (space = zero).
LEVELS = " .:-=+*#%@"


@dataclass(frozen=True)
class EpochSample:
    """Counter deltas over one epoch."""

    epoch: int
    start_cycle: int
    instructions: int
    reads: int
    writes: int
    row_hits: int
    pending: int

    def ipc(self, epoch_cycles: int, cpu_ratio: float) -> float:
        return self.instructions / (epoch_cycles * cpu_ratio)

    @property
    def hit_rate(self) -> float:
        return self.row_hits / self.reads if self.reads else 0.0


class EpochRecorder:
    """Snapshots a :class:`StatsCollector` at fixed cycle boundaries."""

    def __init__(self, stats: StatsCollector, epoch_cycles: int,
                 on_sample: "Callable[[EpochSample], None] | None" = None):
        if epoch_cycles < 1:
            raise ValueError("epoch_cycles must be >= 1")
        self.stats = stats
        self.epoch_cycles = epoch_cycles
        self.samples: List[EpochSample] = []
        self._last = (0, 0, 0, 0)  # instructions, reads, writes, hits
        #: Next unmaterialised boundary; the simulator guards its calls
        #: on this so disabled-boundary cycles never compute ``pending``.
        self.next_boundary = epoch_cycles
        #: Optional ``tap(sample)`` called as each sample materialises —
        #: the live-telemetry tap (a probe's ``on_epoch``).  The tap only
        #: *reads* the sample the recorder stores anyway, so the series
        #: is identical with or without one attached (pinned by
        #: tests/obs equivalence suites).
        self.on_sample = on_sample

    def observe(self, now: int, pending: int) -> None:
        """Record any epoch boundaries passed by cycle ``now``.

        Clock skipping may jump several boundaries at once; every one is
        materialised so the series has no holes.
        """
        while now >= self.next_boundary:
            self._materialise(pending)

    def observe_gap(self, now: int, pending: int) -> None:
        """Record boundaries strictly before ``now`` (skipped cycles).

        Called at the top of a simulated cycle for boundaries the clock
        jumped over.  Dead cycles change none of the sampled counters,
        so the pre-tick state *is* the state the unskipped loop would
        have sampled at each jumped boundary — this is what pins epoch
        samples equal between the skipping and non-skipping loops.
        """
        while self.next_boundary < now:
            self._materialise(pending)

    def _materialise(self, pending: int) -> None:
        stats = self.stats
        current = (
            stats.instructions, stats.reads, stats.writes,
            stats.row_hits,
        )
        delta = tuple(c - l for c, l in zip(current, self._last))
        self.samples.append(EpochSample(
            epoch=len(self.samples),
            start_cycle=self.next_boundary - self.epoch_cycles,
            instructions=delta[0],
            reads=delta[1],
            writes=delta[2],
            row_hits=delta[3],
            pending=pending,
        ))
        self._last = current
        self.next_boundary += self.epoch_cycles
        if self.on_sample is not None:
            self.on_sample(self.samples[-1])


def sparkline(values: Sequence[float], levels: str = LEVELS) -> str:
    """Render a numeric series as one intensity character per point.

    >>> sparkline([0, 1, 2, 3])
    ' -*@'
    """
    if not values:
        return ""
    peak = max(values)
    if peak <= 0:
        return levels[0] * len(values)
    steps = len(levels) - 1
    # Clamp below as well: a negative value must render the floor glyph,
    # not wrap around to a high level via negative indexing.
    return "".join(
        levels[max(0, min(steps, round(steps * value / peak)))]
        for value in values
    )


def ipc_series(samples: Sequence[EpochSample], epoch_cycles: int,
               cpu_ratio: float) -> List[float]:
    return [s.ipc(epoch_cycles, cpu_ratio) for s in samples]


def epoch_table(samples: Sequence[EpochSample], epoch_cycles: int,
                cpu_ratio: float) -> str:
    """Full per-epoch numbers as an aligned table."""
    rows = [
        [
            s.epoch,
            s.start_cycle,
            s.ipc(epoch_cycles, cpu_ratio),
            s.reads,
            s.writes,
            s.hit_rate,
            s.pending,
        ]
        for s in samples
    ]
    return ascii_table(
        ["epoch", "start", "ipc", "reads", "writes", "hit rate",
         "pending"],
        rows,
    )


def phase_summary(samples: Sequence[EpochSample], epoch_cycles: int,
                  cpu_ratio: float) -> Dict[str, str]:
    """Sparkline digest of the main series (for run reports)."""
    return {
        "ipc": sparkline(ipc_series(samples, epoch_cycles, cpu_ratio)),
        "reads": sparkline([s.reads for s in samples]),
        "writes": sparkline([s.writes for s in samples]),
        "pending": sparkline([s.pending for s in samples]),
    }
