"""Unit tests for the request-lifecycle tracer and blame aggregation.

End-to-end attribution correctness lives in
``tests/properties/test_blame_props.py``; here the tracer's own
mechanics are pinned: deterministic sampling, watermark fill semantics,
span/event round-trips, and the report math.
"""

import pytest

from repro.config import fgnvm
from repro.memsys.controller import MemoryController
from repro.memsys.request import MemRequest, OpType
from repro.memsys.stats import StatsCollector
from repro.obs import make_probe
from repro.obs.trace import (
    BLAME_CAUSES,
    BLAME_SCHED,
    BLAME_SERVICE,
    BLAME_TILE,
    RequestSpan,
    RequestTracer,
    blame_report,
    render_blame,
    seed_from_digest,
    span_to_events,
    spans_from_events,
)
from repro.sim.experiment import run_benchmark


def make_span(req_id=0, arrival=10):
    return RequestSpan(req_id=req_id, op="R", arrival=arrival, last=arrival)


class TestRequestSpan:
    def test_fill_is_contiguous_and_merges_same_cause(self):
        span = make_span(arrival=10)
        span.fill(15, BLAME_TILE)
        span.fill(20, BLAME_TILE)     # merges with the previous segment
        span.fill(20, BLAME_SCHED)    # empty interval: dropped
        span.fill(26, BLAME_SERVICE)
        span.completion = 26
        assert span.segments == [
            (10, 20, BLAME_TILE), (20, 26, BLAME_SERVICE),
        ]
        assert span.check() == []
        assert span.blame() == {BLAME_TILE: 10, BLAME_SERVICE: 6}
        assert span.latency == 16

    def test_check_flags_gaps_and_bad_sums(self):
        span = make_span(arrival=0)
        span.segments = [(0, 4, BLAME_TILE), (6, 9, BLAME_SERVICE)]
        span.completion = 9
        problems = span.check()
        assert any("gap/overlap" in p for p in problems)
        assert any("blame sums" in p for p in problems)

    def test_check_flags_incomplete_span(self):
        assert make_span().check() == ["req 0: span never completed"]


class TestSampling:
    def test_sample_every_validates(self):
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            RequestTracer(sample_every=0)

    def test_seed_from_digest_uses_hex_prefix(self):
        assert seed_from_digest("deadbeef" + "0" * 56) == 0xDEADBEEF

    def test_sampling_is_deterministic_in_admission_order(self):
        """The sampled set depends only on (sample_every, seed) and each
        request's per-run admission index — not on req_id, which comes
        from a process-global counter."""

        def sampled_indices(skipped_ids):
            for _ in range(skipped_ids):
                MemRequest(OpType.READ, 0)  # advances the global id counter
            tracer = RequestTracer(sample_every=3, seed=7)
            ctrl = MemoryController(fgnvm(8, 2), StatsCollector(),
                                    probe=make_probe(tracer=tracer))
            reqs = [MemRequest(OpType.READ, i * 64) for i in range(12)]
            for index, req in enumerate(reqs):
                ctrl.enqueue(req, now=index)
            return [index for index, req in enumerate(reqs)
                    if req.req_id in tracer.active]

        assert sampled_indices(0) == sampled_indices(1000)
        assert sampled_indices(0) == [1, 4, 7, 10]  # 7 % 3 == 1


class TestEventRoundTrip:
    def test_span_to_events_and_back(self):
        span = make_span(req_id=42, arrival=5)
        span.channel, span.bank, span.sag, span.cd = 0, 3, 2, 1
        span.fill(9, BLAME_TILE)
        span.fill(30, BLAME_SERVICE)
        span.completion = 30
        span.service = "row_miss"
        events = span_to_events(span)
        assert [e.kind for e in events] == ["span", "blame", "blame"]
        (rebuilt,) = spans_from_events(events)
        assert rebuilt.req_id == 42
        assert rebuilt.segments == span.segments
        assert rebuilt.latency == span.latency
        assert rebuilt.check() == []

    def test_spans_from_events_accepts_a_generator(self):
        span = make_span(req_id=1, arrival=0)
        span.fill(8, BLAME_SERVICE)
        span.completion = 8
        (rebuilt,) = spans_from_events(iter(span_to_events(span)))
        assert rebuilt.segments == span.segments


class TestBlameReport:
    def make_spans(self):
        spans = []
        for i, (tile, service) in enumerate([(4, 6), (0, 10), (90, 10)]):
            span = make_span(req_id=i, arrival=0)
            if tile:
                span.fill(tile, BLAME_TILE)
            span.fill(tile + service, BLAME_SERVICE)
            span.completion = tile + service
            spans.append(span)
        return spans

    def test_report_math(self):
        report = blame_report(self.make_spans())
        assert report["spans"] == 3
        assert report["mean_latency"] == pytest.approx(120 / 3)
        assert report["max_latency"] == 100
        assert report["unattributed_cycles"] == 0
        assert report["blame_cycles"] == {
            BLAME_TILE: 94, BLAME_SERVICE: 26,
        }
        assert sum(report["blame_share"].values()) == pytest.approx(1.0)
        # The p95 tail is the single 100-cycle span, dominated by tile.
        assert report["tail_spans"] == 1
        assert report["tail_blame_share"][BLAME_TILE] == pytest.approx(0.9)

    def test_empty_report(self):
        report = blame_report([])
        assert report["spans"] == 0
        assert report["mean_latency"] == 0.0
        assert report["unattributed_cycles"] == 0

    def test_render_mentions_causes_and_queue_full(self):
        text = render_blame(
            blame_report(self.make_spans(), {"R": 2, "W": 0}),
            label="unit",
        )
        assert "latency blame — unit:" in text
        assert BLAME_TILE in text
        assert "queue-full refusals" in text
        assert "R=2" in text
        assert "WARNING" not in text


class TestLiveTracing:
    def test_traced_run_yields_sound_spans(self):
        cfg = fgnvm(8, 2)
        cfg.org.rows_per_bank = 256
        tracer = RequestTracer(sample_every=5, seed=3)
        run_benchmark(cfg, "mcf", 400, probe=make_probe(tracer=tracer))
        assert tracer.finished
        assert not tracer.active  # every sampled request completed
        for span in tracer.finished:
            assert span.check() == []
        causes = {
            cause for span in tracer.finished for cause in span.blame()
        }
        assert causes <= set(BLAME_CAUSES)
        assert BLAME_SERVICE in causes
