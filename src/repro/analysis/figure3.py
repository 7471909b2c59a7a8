"""Figure 3 regenerator: the three FgNVM access schemes, observed live.

The paper's Figure 3 is a schematic of a 2x2-tile bank showing
(a) Partial-Activation, (b) Multi-Activation and (c) a Backgrounded
Write.  Rather than redrawing the schematic, this module drives an
actual 2x2 FgNVM bank model through each scenario and renders the
resulting tile-occupancy timeline — the claimed behaviour as measured
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config.presets import fgnvm
from ..core.fgnvm_bank import make_fgnvm_bank
from ..memsys.address import AddressMapper
from ..memsys.request import MemRequest, OpType
from ..memsys.stats import StatsCollector
from ..obs.events import TimelineSink, make_probe
from ..sim.timeline import TimelineEvent, overlap_summary, render_timeline


@dataclass
class Scenario:
    """One Figure-3 panel: its timeline and parallelism counters."""

    name: str
    events: List[TimelineEvent]
    stats: StatsCollector

    def render(self) -> str:
        return f"({self.name})\n" + render_timeline(self.events)

    def overlaps(self) -> Dict[str, int]:
        return overlap_summary(self.events)


class _Bench:
    """A probed 2x2 FgNVM bank with coordinate helpers.

    The bank publishes issue events on the structured bus; a
    :class:`~repro.obs.events.TimelineSink` turns them into the tuples
    the ASCII renderers consume — the Figure-3 panels are therefore
    pure event-stream consumers.
    """

    def __init__(self):
        cfg = fgnvm(2, 2)
        cfg.org.rows_per_bank = 64
        self.cfg = cfg
        self.stats = StatsCollector()
        self.timeline = TimelineSink()
        self.bank = make_fgnvm_bank(
            0, cfg.org, cfg.timing.cycles(), self.stats
        )
        self.bank.probe = make_probe(self.timeline)
        self.mapper = AddressMapper(cfg.org)

    @property
    def events(self) -> List[TimelineEvent]:
        return self.timeline.events

    def request(self, sag: int, cd: int, write: bool = False,
                row_in_sag: int = 0) -> MemRequest:
        row = sag * self.cfg.org.rows_per_sag + row_in_sag
        col = cd * self.cfg.org.columns_per_cd
        op = OpType.WRITE if write else OpType.READ
        req = MemRequest(op, self.mapper.encode(row=row, col=col))
        req.decoded = self.mapper.decode(req.address)
        return req

    def issue(self, req: MemRequest, not_before: int = 0) -> int:
        start = self.bank.earliest_start(req, not_before)
        self.bank.issue(req, start)
        return start


def partial_activation() -> Scenario:
    """Figure 3(a): only the upper-left tile is sensed.

    One read activates row 0 of SAG 0 but senses only CD 0's slice —
    the other tile of that row contributes no sense energy.
    """
    bench = _Bench()
    bench.issue(bench.request(sag=0, cd=0))
    return Scenario("a: Partial-Activation", bench.events, bench.stats)


def multi_activation() -> Scenario:
    """Figure 3(b): upper-left and lower-right tiles sense in parallel.

    Two reads to different rows proceed concurrently because they are in
    different SAGs *and* different CDs.
    """
    bench = _Bench()
    first = bench.issue(bench.request(sag=0, cd=0))
    bench.issue(bench.request(sag=1, cd=1), not_before=first + 1)
    return Scenario("b: Multi-Activation", bench.events, bench.stats)


def backgrounded_write() -> Scenario:
    """Figure 3(c): a read proceeds while a write drives another tile.

    The lower-right tile takes a 150 ns write pulse; the upper-left tile
    is read underneath it.
    """
    bench = _Bench()
    first = bench.issue(bench.request(sag=1, cd=1, write=True))
    bench.issue(bench.request(sag=0, cd=0), not_before=first + 1)
    return Scenario("c: Backgrounded Write", bench.events, bench.stats)


def run_figure3() -> List[Scenario]:
    """All three panels, in figure order.

    Each panel is a few bank commands, so they build in-process.
    """
    return [partial_activation(), multi_activation(), backgrounded_write()]


def render_figure3(scenarios: List[Scenario]) -> str:
    header = (
        "Figure 3 — FgNVM access schemes on a 2x2-tile bank "
        "(observed tile occupancy)"
    )
    return header + "\n\n" + "\n\n".join(s.render() for s in scenarios)


def check_figure3(scenarios: List[Scenario]) -> List[str]:
    """Violations of each panel's defining property (empty = clean)."""
    problems = []
    by_name = {s.name[0]: s for s in scenarios}

    partial = by_name["a"]
    # Exactly one CD slice sensed: the 1KB row over 2 CDs -> 512B.
    slice_bits = 512 * 8
    if partial.stats.sense_bits != slice_bits:
        problems.append(
            f"partial activation sensed {partial.stats.sense_bits} bits, "
            f"expected one {slice_bits}-bit CD slice"
        )
    if partial.overlaps()["busy"] == 0:
        problems.append("partial activation produced no occupancy")

    multi = by_name["b"]
    if multi.overlaps()["multi_activation"] == 0:
        problems.append("multi-activation senses did not overlap")
    if multi.stats.multi_activation_senses != 1:
        problems.append(
            "expected exactly one overlapping sense, got "
            f"{multi.stats.multi_activation_senses}"
        )

    background = by_name["c"]
    if background.overlaps()["read_under_write"] == 0:
        problems.append("no read proceeded under the write pulse")
    if background.stats.reads_under_write != 1:
        problems.append(
            "expected one read under the write, got "
            f"{background.stats.reads_under_write}"
        )
    return problems
