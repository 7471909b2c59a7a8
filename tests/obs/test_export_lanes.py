"""Chrome-trace lane pinning per bank organisation.

The Perfetto export maps each (SAG, CD) tile to one thread lane of its
(channel, bank) process.  These tests pin the lane *count and labels*
for every :class:`BankArchitecture` — BASELINE collapses to a single
``SAG0/CD0`` lane, SALP fans out along the SAG axis only, FgNVM along
both — so a new organisation (or a refactor of the exporter) cannot
silently collapse or mislabel lanes.  Request-span lanes are also
pinned to their own processes: tracing must never pollute the tile
lanes.
"""

import pytest

from repro.config import baseline_nvm, fgnvm, salp
from repro.obs import ListSink, make_probe
from repro.obs.events import EV_ISSUE, Event
from repro.obs.export import chrome_trace
from repro.obs.trace import RequestTracer
from repro.sim.simulator import simulate
from repro.workloads import generate_trace, get_profile


def lane_labels(payload):
    """{pid: [thread-lane names]} from a Chrome-trace payload."""
    lanes = {}
    for entry in payload["traceEvents"]:
        if entry.get("ph") == "M" and entry["name"] == "thread_name":
            lanes.setdefault(entry["pid"], []).append(
                entry["args"]["name"]
            )
    return lanes


def process_names(payload):
    return {
        entry["pid"]: entry["args"]["name"]
        for entry in payload["traceEvents"]
        if entry.get("ph") == "M" and entry["name"] == "process_name"
    }


def synthetic_issue_events(config):
    """One EV_ISSUE per tile of one bank, in scrambled order."""
    org = config.org
    tiles = [
        (sag, cd)
        for sag in range(org.subarray_groups)
        for cd in range(org.column_divisions)
    ]
    # Reverse order: lane numbering must come from the exporter's
    # sorted registration pass, not from event arrival order.
    return [
        Event(EV_ISSUE, cycle=10 * i, end=10 * i + 4, req_id=i, op="R",
              service="row_miss", channel=0, bank=0, sag=sag, cd=cd)
        for i, (sag, cd) in enumerate(reversed(tiles))
    ]


#: (config builder, expected tile-lane labels, in tid order).
ORGANISATIONS = [
    pytest.param(
        baseline_nvm, ["SAG0/CD0"], id="baseline-1x1",
    ),
    pytest.param(
        lambda: salp(4),
        ["SAG0/CD0", "SAG1/CD0", "SAG2/CD0", "SAG3/CD0"],
        id="salp-4x1",
    ),
    pytest.param(
        lambda: fgnvm(4, 2),
        ["SAG0/CD0", "SAG0/CD1", "SAG1/CD0", "SAG1/CD1",
         "SAG2/CD0", "SAG2/CD1", "SAG3/CD0", "SAG3/CD1"],
        id="fgnvm-4x2",
    ),
    pytest.param(
        lambda: fgnvm(2, 4),
        ["SAG0/CD0", "SAG0/CD1", "SAG0/CD2", "SAG0/CD3",
         "SAG1/CD0", "SAG1/CD1", "SAG1/CD2", "SAG1/CD3"],
        id="fgnvm-2x4",
    ),
]


class TestTileLanePinning:
    @pytest.mark.parametrize("builder, expected", ORGANISATIONS)
    def test_lane_count_and_labels_per_organisation(self, builder,
                                                    expected):
        payload = chrome_trace(synthetic_issue_events(builder()))
        lanes = lane_labels(payload)
        assert len(lanes) == 1  # one bank touched -> one process
        (labels,) = lanes.values()
        assert labels == expected

    @pytest.mark.parametrize("builder, expected", ORGANISATIONS)
    def test_lanes_ordered_by_sag_then_cd(self, builder, expected):
        """tids follow (SAG, CD) order regardless of event order, so
        the Perfetto view matches the ASCII timeline's lane order."""
        payload = chrome_trace(synthetic_issue_events(builder()))
        tids = {}
        for entry in payload["traceEvents"]:
            if entry.get("ph") == "M" and entry["name"] == "thread_name":
                tids[entry["args"]["name"]] = entry["tid"]
        assert sorted(tids, key=tids.get) == expected
        assert [tids[label] for label in expected] == list(
            range(1, len(expected) + 1)
        )  # tid 0 is reserved for the controller lane


class TestRequestLanesStaySeparate:
    def run_traced(self, builder, requests=300):
        cfg = builder()
        cfg.org.rows_per_bank = 256
        sink = ListSink()
        tracer = RequestTracer(sample_every=3, seed=1)
        trace = generate_trace(get_profile("mcf"), requests)
        simulate(cfg, trace, probe=make_probe(sink, tracer=tracer))
        return chrome_trace(sink.events)

    @pytest.mark.parametrize("builder", [
        baseline_nvm, lambda: salp(4), lambda: fgnvm(4, 2),
    ])
    def test_span_lanes_live_in_request_processes(self, builder):
        payload = self.run_traced(builder)
        names = process_names(payload)
        lanes = lane_labels(payload)
        request_pids = {
            pid for pid, name in names.items() if name.endswith("/requests")
        }
        assert request_pids, "traced run produced no request process"
        assert all(pid >= 1000 for pid in request_pids)
        for pid, labels in lanes.items():
            if pid in request_pids:
                # Span lane first (tid 0), then blame-cause lanes only.
                assert labels[0] == "span"
                assert all(
                    not label.startswith("SAG") for label in labels
                )
            else:
                # Tile processes hold only controller + SAGx/CDy lanes.
                assert all(
                    label == "controller" or label.startswith("SAG")
                    for label in labels
                )

    def test_tile_lanes_identical_with_and_without_tracing(self):
        """Attaching the tracer adds request processes but must leave
        the tile processes' lane sets untouched."""
        cfg = fgnvm(4, 2)
        cfg.org.rows_per_bank = 256
        trace = generate_trace(get_profile("mcf"), 300)

        def tile_lanes(tracer):
            sink = ListSink()
            simulate(cfg, trace, probe=make_probe(sink, tracer=tracer))
            payload = chrome_trace(sink.events)
            names = process_names(payload)
            return {
                names[pid]: labels
                for pid, labels in lane_labels(payload).items()
                if not names[pid].endswith("/requests")
            }

        untraced = tile_lanes(None)
        traced = tile_lanes(RequestTracer(sample_every=2, seed=0))
        assert traced == untraced
