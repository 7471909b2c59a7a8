"""Trace inspection: analysis from the exported event log alone."""

import pytest

from repro.config import fgnvm
from repro.errors import ReproError
from repro.obs import ListSink, make_probe
from repro.obs.events import EV_ISSUE, Event
from repro.obs.export import write_chrome_trace, write_events_jsonl
from repro.obs.inspect import (
    inspect_trace,
    load_events,
    summarize_events,
)
from repro.sim.simulator import simulate
from repro.workloads import generate_trace, get_profile


@pytest.fixture(scope="module")
def run_events():
    cfg = fgnvm(4, 4)
    cfg.org.rows_per_bank = 256
    trace = generate_trace(get_profile("lbm"), 600)
    sink = ListSink()
    result = simulate(cfg, trace, probe=make_probe(sink))
    return result, sink.events


class TestLoadEvents:
    def test_loads_jsonl(self, run_events, tmp_path):
        _, events = run_events
        path = tmp_path / "run.jsonl"
        write_events_jsonl(events, path)
        assert load_events(path) == events

    def test_loads_chrome_trace_tiles(self, run_events, tmp_path):
        _, events = run_events
        path = tmp_path / "run.json"
        write_chrome_trace(events, path)
        loaded = load_events(path)
        # Chrome traces preserve the tile slices; tile coordinates and
        # service kinds must survive the round trip.
        originals = [e for e in events if e.kind == "issue" and e.sag >= 0]
        assert len(loaded) == len(originals)
        assert (
            sorted((e.cycle, e.sag, e.cd, e.service) for e in loaded)
            == sorted((e.cycle, e.sag, e.cd, e.service) for e in originals)
        )

    def test_rejects_chrome_trace_without_tiles(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}')
        with pytest.raises(ReproError):
            load_events(path)


class TestSummarize:
    def test_answers_the_papers_questions(self, run_events):
        result, events = run_events
        summary = summarize_events(events)
        assert summary["events"] == len(events)
        assert summary["tiles"], "expected per-tile occupancy rows"
        assert summary["multi_activation_cycles"] >= 0
        assert summary["read_under_write_cycles"] >= 0
        assert summary["totals"]["reads"] == result.stats.reads
        assert summary["totals"]["writes"] == result.stats.writes

    def test_tile_rows_have_occupancy(self, run_events):
        _, events = run_events
        for tile in summarize_events(events)["tiles"].values():
            assert 0.0 <= tile["occupancy"] <= 1.0
            assert tile["busy_cycles"] >= 0
            assert tile["operations"] == sum(tile["issues"].values())

    @staticmethod
    def misses(*placements):
        """Overlapping row-miss senses at (bank, sag, cd) placements."""
        return [
            Event(EV_ISSUE, 10, end=40, req_id=index, op="R",
                  service="row_miss", channel=0, bank=bank, sag=sag, cd=cd)
            for index, (bank, sag, cd) in enumerate(placements)
        ]

    def test_senses_in_different_banks_are_not_multi_activation(self):
        summary = summarize_events(self.misses((0, 0, 0), (1, 1, 1)))
        assert summary["multi_activation_cycles"] == 0
        assert summary["busy_cycles"] == 30

    def test_senses_in_one_bank_are_multi_activation(self):
        summary = summarize_events(self.misses((0, 0, 0), (0, 1, 1)))
        assert summary["multi_activation_cycles"] == 30

    def test_write_in_another_bank_is_not_read_under_write(self):
        events = self.misses((0, 0, 0)) + [
            Event(EV_ISSUE, 10, end=40, req_id=9, op="W", service="write",
                  channel=0, bank=1, sag=1, cd=1),
        ]
        assert summarize_events(events)["read_under_write_cycles"] == 0


class TestRender:
    def test_inspect_trace_jsonl(self, run_events, tmp_path):
        _, events = run_events
        path = tmp_path / "run.jsonl"
        write_events_jsonl(events, path)
        text = inspect_trace(path)
        assert "per-tile occupancy" in text
        assert "multi-activation" in text
        assert "reads under writes" in text
        assert "SAG0/CD0" in text

    def test_inspect_trace_with_timeline(self, run_events, tmp_path):
        _, events = run_events
        path = tmp_path / "run.jsonl"
        write_events_jsonl(events, path)
        text = inspect_trace(path, timeline_width=40)
        assert "|" in text  # the ASCII gantt lanes

    def test_inspect_chrome_trace(self, run_events, tmp_path):
        _, events = run_events
        path = tmp_path / "run.json"
        write_chrome_trace(events, path)
        assert "per-tile occupancy" in inspect_trace(path)
