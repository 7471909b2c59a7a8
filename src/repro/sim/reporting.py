"""Plain-text reporting: aligned tables and figure-series dumps.

The benchmark harness and the examples print the same rows/series the
paper's tables and figures show; these helpers keep that output aligned
and dependency-free (no plotting libraries are assumed offline).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Mapping, Optional, Sequence, TextIO, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, precision: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    precision: int = 3,
) -> str:
    """Render an aligned monospace table with a header rule."""
    text_rows = [
        [format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(str(h)) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def series_table(
    series: Mapping[str, Mapping[str, float]],
    row_label: str = "benchmark",
    precision: int = 3,
) -> str:
    """Render a {row: {column: value}} nest (figure series) as a table."""
    if not series:
        return "(empty)"
    columns: List[str] = []
    for row_values in series.values():
        for column in row_values:
            if column not in columns:
                columns.append(column)
    headers = [row_label] + columns
    rows = [
        [row_name] + [row_values.get(column, "") for column in columns]
        for row_name, row_values in series.items()
    ]
    return ascii_table(headers, rows, precision)


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
    precision: int = 3,
) -> str:
    """A quick horizontal ASCII bar chart (examples' visual output)."""
    if not values:
        return "(empty)"
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(name) for name in values)
    lines = []
    for name, value in values.items():
        bar = "#" * max(1, round(width * value / peak))
        lines.append(
            f"{name.ljust(label_width)}  {bar} {value:.{precision}f}{unit}"
        )
    return "\n".join(lines)


def dict_table(data: Dict[str, Cell], precision: int = 3) -> str:
    """Two-column key/value table (config describe() output)."""
    return ascii_table(
        ["key", "value"],
        [[key, value] for key, value in data.items()],
        precision,
    )


# -- progress / ETA ---------------------------------------------------------


def format_duration(seconds: float) -> str:
    """Compact human duration: ``42s``, ``3m07s``, ``1h04m``."""
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def progress_line(
    done: int,
    total: int,
    elapsed_s: float,
    eta_s: Optional[float] = None,
    label: str = "simulations",
) -> str:
    """One status line for a batch of independent jobs.

    ``[  7/40  17.5%] simulations  elapsed 12s  eta 57s`` — the engine
    feeds this after every completed job; the ETA extrapolates the mean
    rate so far and is omitted until the first completion.
    """
    width = len(str(total))
    pct = 100.0 * done / total if total else 100.0
    line = f"[{done:>{width}}/{total}  {pct:5.1f}%] {label}"
    line += f"  elapsed {format_duration(elapsed_s)}"
    if eta_s is None and done and total > done:
        eta_s = elapsed_s / done * (total - done)
    if total > done:
        line += f"  eta {format_duration(eta_s) if eta_s is not None else '?'}"
    return line


def progress_printer(stream: Optional[TextIO] = None) -> Callable:
    """A ready-made engine progress hook writing to ``stream``.

    Accepts :class:`repro.sim.parallel.ProgressEvent` instances (or
    anything with ``done``/``total``/``elapsed_s``/``eta_s``) and
    rewrites a single status line on a TTY, one line per event
    otherwise.
    """
    out = stream if stream is not None else sys.stderr

    def hook(event) -> None:
        line = progress_line(
            event.done,
            event.total,
            event.elapsed_s,
            getattr(event, "eta_s", None),
            getattr(event, "label", "simulations"),
        )
        if out.isatty():
            end = "\n" if event.done >= event.total else "\r"
            out.write("\x1b[2K" + line + end)
        else:
            out.write(line + "\n")
        out.flush()

    return hook
