"""Tile-occupancy timelines: render what the bank actually did.

A bank's operations, as ``(start, end, sag, cd, kind)`` tuples, come
from the structured event stream: attach a
:class:`~repro.obs.events.TimelineSink` to the bank's probe, or filter
a recorded stream with :func:`~repro.obs.events.tile_events`.
:func:`render_timeline` turns those tuples into an ASCII Gantt chart
with one lane per (SAG, CD) tile, so the paper's Figure-3 access
schemes — Partial-Activation, Multi-Activation, Backgrounded Writes —
are visible as overlapping occupancy bars instead of a schematic.

Lane glyphs: ``M`` row-miss sense, ``U`` underfetch (re-sense), ``h``
buffered hit, ``W`` write pulse, ``.`` idle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..memsys.request import (
    SERVICE_ROW_HIT,
    SERVICE_ROW_MISS,
    SERVICE_UNDERFETCH,
    SERVICE_WRITE,
    SERVICE_WRITE_MISS,
)

#: One bank operation on a (SAG, CD) tile.
TimelineEvent = Tuple[int, int, int, int, str]

GLYPHS = {
    SERVICE_ROW_MISS: "M",
    SERVICE_UNDERFETCH: "U",
    SERVICE_ROW_HIT: "h",
    SERVICE_WRITE: "W",
    SERVICE_WRITE_MISS: "W",
}
IDLE = "."


def lane_label(sag: int, cd: int) -> str:
    return f"SAG{sag}/CD{cd}"


def render_timeline(
    events: Sequence[TimelineEvent],
    width: int = 72,
    start: "int | None" = None,
    end: "int | None" = None,
) -> str:
    """Render an event log as a per-tile ASCII Gantt chart.

    ``width`` columns cover [start, end) (defaulting to the log's span);
    each column is ``ceil(span / width)`` cycles, marked with the glyph
    of whichever operation occupies the tile there (later events win
    within one cell, which only matters at coarse scales).
    """
    if not events:
        return "(no events)"
    t0 = min(e[0] for e in events) if start is None else start
    t1 = max(e[1] for e in events) if end is None else end
    span = max(1, t1 - t0)
    scale = max(1, -(-span // width))  # ceil division
    columns = -(-span // scale)

    lanes: Dict[Tuple[int, int], List[str]] = {}
    for ev_start, ev_end, sag, cd, kind in sorted(events):
        lane = lanes.setdefault((sag, cd), [IDLE] * columns)
        glyph = GLYPHS.get(kind, "?")
        first = max(0, (ev_start - t0) // scale)
        last = min(columns - 1, max(first, (ev_end - 1 - t0) // scale))
        for index in range(first, last + 1):
            lane[index] = glyph

    label_width = max(len(lane_label(s, c)) for s, c in lanes)
    lines = [
        f"cycles {t0}..{t1} ({scale} cy/column)   "
        "M=miss-sense U=re-sense h=hit W=write .=idle"
    ]
    for (sag, cd) in sorted(lanes):
        lane = lanes[(sag, cd)]
        lines.append(f"{lane_label(sag, cd).ljust(label_width)} |"
                     + "".join(lane) + "|")
    return "\n".join(lines)


def overlap_summary(events: Sequence[TimelineEvent]) -> Dict[str, int]:
    """Count the paper's parallelism patterns in an event log.

    * ``multi_activation`` — cycles during which two or more sense
      operations (miss or underfetch) overlap,
    * ``read_under_write`` — cycles during which a read overlaps an
      in-progress write,
    * ``busy`` — cycles with any operation in flight.
    """
    if not events:
        return {"multi_activation": 0, "read_under_write": 0, "busy": 0}
    edges = sorted({e[0] for e in events} | {e[1] for e in events})
    multi = ruw = busy = 0
    senses = (SERVICE_ROW_MISS, SERVICE_UNDERFETCH)
    writes = (SERVICE_WRITE, SERVICE_WRITE_MISS)
    for left, right in zip(edges, edges[1:]):
        live = [e for e in events if e[0] <= left and e[1] >= right]
        if not live:
            continue
        length = right - left
        busy += length
        live_senses = sum(1 for e in live if e[4] in senses)
        live_writes = sum(1 for e in live if e[4] in writes)
        live_reads = sum(1 for e in live if e[4] not in writes)
        if live_senses >= 2:
            multi += length
        if live_writes and live_reads:
            ruw += length
    return {
        "multi_activation": multi,
        "read_under_write": ruw,
        "busy": busy,
    }
