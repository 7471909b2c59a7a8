#!/usr/bin/env python3
"""Figure 3 live: watch the tiles of an FgNVM bank over time.

First renders the paper's three textbook scenarios on a 2x2-tile bank
(Partial-Activation, Multi-Activation, Backgrounded Write) as observed
occupancy timelines, then records a real workload burst on an 4x4 bank
and shows its tile Gantt chart — multi-activations and backgrounded
writes appearing organically under FRFCFS.

Run:  python examples/access_scheme_timelines.py
"""

from repro import config
from repro.analysis.figure3 import render_figure3, run_figure3
from repro.obs import ListSink, make_probe, tile_events
from repro.sim.simulator import simulate
from repro.sim.timeline import overlap_summary, render_timeline
from repro.workloads import generate_trace, get_profile


def textbook_panels() -> None:
    print(render_figure3(run_figure3()))


def real_workload_burst() -> None:
    cfg = config.fgnvm(4, 4)
    trace = generate_trace(get_profile("milc"), 600)
    sink = ListSink()
    simulate(cfg, trace, probe=make_probe(sink))
    # Bank 0's tile occupancy, rebuilt from the structured event stream.
    log = tile_events(e for e in sink.events if e.bank == 0)

    window = [e for e in log if e[0] < 4000]
    print(f"\nmilc on {cfg.name} — bank 0, first 4000 cycles "
          f"({len(window)} operations):")
    print(render_timeline(window, width=72, start=0, end=4000))
    summary = overlap_summary(window)
    print(
        f"\nparallelism in this window: "
        f"{summary['multi_activation']} cycles of overlapping senses, "
        f"{summary['read_under_write']} cycles of reads under a write, "
        f"{summary['busy']} busy cycles total"
    )


def main() -> None:
    textbook_panels()
    real_workload_burst()


if __name__ == "__main__":
    main()
