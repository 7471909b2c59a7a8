"""Request-lifecycle tracing with latency-blame attribution.

The aggregate counters answer *how much* (hit rates, latencies,
Multi-Activation counts); this module answers *why a given request was
slow*.  A :class:`RequestTracer` follows a deterministic 1-in-N sample
of requests from queue admission through scheduler pick, bank issue and
data transfer to completion, and decomposes every cycle of each sampled
request's latency into exactly one **blame cause**:

========================  ==================================================
cause                     the request waited because ...
========================  ==================================================
``tile_busy``             its (SAG, CD) tile resources were held: the tCCD
                          column gate, an exclusive SAG row change, or the
                          wordline still settling (``row_ready``)
``read_under_write``      a write pulse parked in its SAG/CD blocked it —
                          the paper's read-under-write interference
``multi_activation``      its CD's I/O lines were serialized behind another
                          in-flight sense (the Multi-Activation limit:
                          one operation per CD at a time)
``write_cap``             the ``max_writes_per_bank`` throttle held it back
``drain_phase``           the controller was in the opposite read/write
                          phase (reads during a write drain; writes parked
                          until the drain watermark trips)
``sched_order``           it was issuable but the scheduler (FRFCFS /
                          PALP / ...) ranked other requests first, or the
                          issue-width/command-bus slots ran out
``bus_conflict``          its data transfer was pushed back by data-bus
                          contention
``write_retry``           its own write pulses failed verify and had to be
                          re-issued (device-level verify-and-retry; see
                          :mod:`repro.memsys.reliability`)
``maintenance``           a background wear-leveling row migration held its
                          tile's SAG or CD resources
``service``               useful work: commands, sensing, burst transfer
========================  ==================================================

Attribution is **backward**: at every observation point (the start of a
controller issue pass, or the request's own issue) the tracer closes
the interval since the last observation.  Bank-level constraints are
now-independent (``earliest_start == max(now, constraint)``), so the
portion of the interval below the bank constraint is attributed to the
binding bank resource (via :meth:`FgNvmBank.stall_blame`) and the
remainder — when the request was issuable but not picked — to the
policy-level cause.  Segments are contiguous and non-overlapping *by
construction*, so per-request blame sums exactly to measured latency
(property-tested in ``tests/properties/test_blame_props.py``).

A tracer rides on the run's probe (``make_probe(..., tracer=t)``);
``probe.tracer is None`` means "not tracing", every hot-path hook is
guarded by one branch, and a traced run is pinned bit-identical to an
untraced one (``tests/obs/test_overhead.py``).
Sampling is deterministic: request ``k`` (in per-run admission order)
is traced iff ``k % sample_every == seed % sample_every``, with the
default seed derived from the config digest so identical configurations
sample identical request indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .events import EV_BLAME, EV_SPAN, Event, Probe

#: Blame causes, in report order (service last: it is not a stall).
BLAME_TILE = "tile_busy"
BLAME_RUW = "read_under_write"
BLAME_MULTI_ACT = "multi_activation"
BLAME_WRITE_CAP = "write_cap"
BLAME_DRAIN = "drain_phase"
BLAME_SCHED = "sched_order"
BLAME_BUS = "bus_conflict"
BLAME_WRITE_RETRY = "write_retry"
BLAME_MAINT = "maintenance"
BLAME_SERVICE = "service"

BLAME_CAUSES = (
    BLAME_TILE, BLAME_RUW, BLAME_MULTI_ACT, BLAME_WRITE_CAP,
    BLAME_DRAIN, BLAME_SCHED, BLAME_BUS, BLAME_WRITE_RETRY,
    BLAME_MAINT, BLAME_SERVICE,
)

#: Pre-admission backpressure is not a span cause — a request only
#: exists (and its latency only starts counting) once admitted — so
#: queue-full refusals are reported as run-level counters instead.
BLAME_QUEUE_FULL = "queue_full"


def seed_from_digest(digest: str) -> int:
    """Deterministic sampling seed from a config digest (hex string)."""
    return int(digest[:8], 16)


@dataclass(slots=True)
class RequestSpan:
    """One sampled request's lifecycle: contiguous blame segments.

    ``segments`` is a list of ``(start, end, cause)`` half-open
    intervals.  They are appended strictly left-to-right through
    :meth:`fill`, which extends coverage from the attribution watermark
    ``last`` — so the segments tile ``[arrival, completion)`` exactly,
    with no gaps and no overlaps.
    """

    req_id: int
    op: str
    arrival: int
    last: int
    channel: int = -1
    bank: int = -1
    sag: int = -1
    cd: int = -1
    issue: int = -1
    completion: int = -1
    service: str = ""
    segments: List[Tuple[int, int, str]] = field(default_factory=list)

    def fill(self, end: int, cause: str) -> None:
        """Attribute ``[last, end)`` to ``cause`` (no-op when empty)."""
        if end <= self.last:
            return
        if self.segments and self.segments[-1][2] == cause:
            start, _, _ = self.segments[-1]
            self.segments[-1] = (start, end, cause)
        else:
            self.segments.append((self.last, end, cause))
        self.last = end

    @property
    def latency(self) -> int:
        return self.completion - self.arrival

    def blame(self) -> Dict[str, int]:
        """Cycles per cause (sums to :attr:`latency` once complete)."""
        totals: Dict[str, int] = {}
        for start, end, cause in self.segments:
            totals[cause] = totals.get(cause, 0) + (end - start)
        return totals

    def check(self) -> List[str]:
        """Structural violations (empty list = the span is sound)."""
        problems = []
        if self.completion < 0:
            return [f"req {self.req_id}: span never completed"]
        cursor = self.arrival
        for start, end, cause in self.segments:
            if start != cursor:
                problems.append(
                    f"req {self.req_id}: gap/overlap at cycle {start} "
                    f"(expected segment start {cursor})"
                )
            if end <= start:
                problems.append(
                    f"req {self.req_id}: empty segment at {start} ({cause})"
                )
            cursor = end
        if cursor != self.completion:
            problems.append(
                f"req {self.req_id}: segments end at {cursor}, "
                f"completion is {self.completion}"
            )
        if sum(e - s for s, e, _ in self.segments) != self.latency:
            problems.append(
                f"req {self.req_id}: blame sums to "
                f"{sum(e - s for s, e, _ in self.segments)}, "
                f"latency is {self.latency}"
            )
        return problems


class RequestTracer:
    """Deterministically sampled per-request lifecycle tracer.

    The controller calls the ``on_*`` hooks (each guarded by
    ``if tracer is not None:`` on the hot path) for sampled requests
    only; the tracer owns sampling, the span store, and pre-admission
    backpressure counters.  One tracer may span several channels —
    admission order is global and deterministic under the
    single-threaded simulation loop.
    """

    __slots__ = (
        "sample_every", "seed", "skip", "active", "finished", "queue_full",
    )

    def __init__(self, sample_every: int = 1, seed: int = 0):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = sample_every
        self.seed = seed
        #: Admissions to pass over before the next sampled one.  The
        #: controller counts it down instead of making a call per
        #: admission and calls :meth:`on_admit` when it reaches 0, so
        #: admission index ``k`` is sampled iff
        #: ``k % sample_every == seed % sample_every``.
        self.skip = seed % sample_every
        #: Sampled spans still in flight, keyed by request id.
        self.active: Dict[int, RequestSpan] = {}
        #: Completed spans, in completion order.
        self.finished: List[RequestSpan] = []
        #: Pre-admission queue-full refusals per op token ("R"/"W").
        self.queue_full: Dict[str, int] = {"R": 0, "W": 0}

    # -- lifecycle hooks (call sites guard on ``tracer is not None``) -------

    def on_queue_full(self, op_token: str) -> None:
        self.queue_full[op_token] = self.queue_full.get(op_token, 0) + 1

    def on_admit(self, req, now: int) -> RequestSpan:
        """Open a sampled request's span (called when :attr:`skip` is 0)
        and re-arm the countdown.  Sampling follows the per-run
        admission index, *not* ``req_id`` (request ids come from a
        process-global counter and are not per-run deterministic)."""
        self.skip = self.sample_every - 1
        dec = req.decoded
        span = RequestSpan(
            req_id=req.req_id, op=req.op.value, arrival=now, last=now,
            channel=dec.channel, bank=dec.flat_bank, sag=dec.sag,
            cd=dec.cd,
        )
        self.active[req.req_id] = span
        return span

    def on_forward(self, span: RequestSpan, now: int, done: int) -> None:
        """A read serviced straight from the write queue: all service."""
        span.issue = now
        span.service = "forwarded"
        span.fill(done, BLAME_SERVICE)
        span.completion = done

    def on_wait(self, span: RequestSpan, now: int, constraint: int,
                bank_cause: str, policy_cause: str) -> None:
        """Close the waiting interval ``[span.last, now)``: the part
        below the bank constraint blames the binding bank resource,
        the issuable remainder blames the controller/scheduler."""
        if constraint > span.last:
            span.fill(constraint if constraint < now else now, bank_cause)
        span.fill(now, policy_cause)

    def on_issue_read(self, span: RequestSpan, now: int, kind: str,
                      bus_desired: int, bus_start: int,
                      completion: int) -> None:
        span.issue = now
        span.service = kind
        span.fill(bus_desired, BLAME_SERVICE)
        span.fill(bus_start, BLAME_BUS)
        span.fill(completion, BLAME_SERVICE)
        span.completion = completion

    def on_issue_write(self, span: RequestSpan, now: int, kind: str,
                       completion: int, retry_cycles: int = 0) -> None:
        """Write service, with any verify-retry re-pulses attributed to
        their own cause.  The retry slice is placed *before* the final
        service fill so every span still ends in ``service`` — the base
        write occupancy is strictly positive, so the retry slice can
        never swallow the whole interval."""
        span.issue = now
        span.service = kind
        if retry_cycles > 0:
            span.fill(span.last + retry_cycles, BLAME_WRITE_RETRY)
        span.fill(completion, BLAME_SERVICE)
        span.completion = completion

    def finish(self, req) -> Optional[RequestSpan]:
        """Publish the span at completion (None for unsampled requests)."""
        span = self.active.pop(req.req_id, None)
        if span is not None:
            self.finished.append(span)
        return span


# -- span <-> event stream ---------------------------------------------------


def span_to_events(span: RequestSpan) -> List[Event]:
    """One ``span`` event plus its ``blame`` slices, export-ready."""
    events = [Event(
        EV_SPAN, span.arrival, end=span.completion, req_id=span.req_id,
        op=span.op, service=span.service, channel=span.channel,
        bank=span.bank, sag=span.sag, cd=span.cd, value=span.latency,
    )]
    for start, end, cause in span.segments:
        events.append(Event(
            EV_BLAME, start, end=end, req_id=span.req_id, op=span.op,
            service=cause, channel=span.channel, bank=span.bank,
            sag=span.sag, cd=span.cd, value=end - start,
        ))
    return events


def emit_span(probe: Probe, span: RequestSpan) -> None:
    """Publish a completed span on the event bus."""
    for event in span_to_events(span):
        probe.emit(event)


def spans_from_events(events: Iterable[Event]) -> List[RequestSpan]:
    """Rebuild spans from an exported event stream (``repro inspect``)."""
    events = list(events)
    spans: Dict[int, RequestSpan] = {}
    order: List[RequestSpan] = []
    for event in events:
        if event.kind == EV_SPAN:
            span = RequestSpan(
                req_id=event.req_id, op=event.op, arrival=event.cycle,
                last=event.cycle, channel=event.channel, bank=event.bank,
                sag=event.sag, cd=event.cd, completion=event.end,
                service=event.service,
            )
            spans[event.req_id] = span
            order.append(span)
    for event in events:
        if event.kind == EV_BLAME:
            span = spans.get(event.req_id)
            if span is not None:
                span.segments.append(
                    (event.cycle, event.end, event.service)
                )
                span.last = event.end
    return order


# -- aggregation -------------------------------------------------------------


def _percentile(sorted_values: List[int], percent: float) -> int:
    """Nearest-rank percentile of a pre-sorted list."""
    if not sorted_values:
        return 0
    rank = int(len(sorted_values) * percent / 100.0 + 0.999999)
    index = min(max(rank - 1, 0), len(sorted_values) - 1)
    return sorted_values[index]


def _bucket_shares(spans: List[RequestSpan]) -> Dict[str, float]:
    """Per-cause share of total latency cycles across ``spans``."""
    totals = {cause: 0 for cause in BLAME_CAUSES}
    for span in spans:
        for cause, cycles in span.blame().items():
            totals[cause] = totals.get(cause, 0) + cycles
    grand = sum(totals.values())
    if grand <= 0:
        return {cause: 0.0 for cause in totals}
    return {
        cause: round(cycles / grand, 4) for cause, cycles in totals.items()
    }


def blame_report(spans: List[RequestSpan],
                 queue_full: Optional[Dict[str, int]] = None
                 ) -> Dict[str, object]:
    """Aggregate spans into the blame decomposition report.

    Mean latency decomposes into per-cause cycle buckets; the *tail*
    decomposition repeats the analysis over the spans at or above the
    p95 latency — the requests the paper's worst-case arguments are
    about.  ``unattributed_cycles`` must be 0: every span's segments
    tile its latency exactly (the property the tests pin).
    """
    spans = list(spans)
    latencies = sorted(span.latency for span in spans)
    n = len(spans)
    totals = {cause: 0 for cause in BLAME_CAUSES}
    attributed = 0
    for span in spans:
        for cause, cycles in span.blame().items():
            totals[cause] = totals.get(cause, 0) + cycles
            attributed += cycles
    total_latency = sum(latencies)
    p95 = _percentile(latencies, 95)
    tail = [span for span in spans if span.latency >= p95]
    report: Dict[str, object] = {
        "spans": n,
        "mean_latency": round(total_latency / n, 2) if n else 0.0,
        "p50_latency": _percentile(latencies, 50),
        "p95_latency": p95,
        "p99_latency": _percentile(latencies, 99),
        "max_latency": latencies[-1] if latencies else 0,
        "blame_cycles": {
            cause: cycles for cause, cycles in totals.items() if cycles
        },
        "blame_share": _bucket_shares(spans),
        "tail_blame_share": _bucket_shares(tail),
        "tail_spans": len(tail),
        "unattributed_cycles": total_latency - attributed,
    }
    if queue_full is not None:
        report[BLAME_QUEUE_FULL] = dict(queue_full)
    return report


def render_blame(report: Dict[str, object], label: str = "") -> str:
    """One report as an aligned ASCII block (``repro run`` / ``blame``)."""
    head = f"latency blame{f' — {label}' if label else ''}:"
    lines = [
        head,
        f"  spans: {report['spans']} sampled "
        f"(mean {report['mean_latency']} cy, "
        f"p50 {report['p50_latency']}, p95 {report['p95_latency']}, "
        f"p99 {report['p99_latency']})",
    ]
    shares: Dict[str, float] = report["blame_share"]
    tail: Dict[str, float] = report["tail_blame_share"]
    width = max(len(cause) for cause in BLAME_CAUSES)
    lines.append(
        f"  {'cause'.ljust(width)}  {'all':>7}  {'p95+ tail':>9}"
    )
    for cause in BLAME_CAUSES:
        share = shares.get(cause, 0.0)
        tail_share = tail.get(cause, 0.0)
        if not share and not tail_share:
            continue
        lines.append(
            f"  {cause.ljust(width)}  {share:>7.1%}  {tail_share:>9.1%}"
        )
    queue_full = report.get(BLAME_QUEUE_FULL)
    if queue_full and any(queue_full.values()):
        refusals = ", ".join(
            f"{op}={count}" for op, count in sorted(queue_full.items())
        )
        lines.append(f"  queue-full refusals (pre-admission): {refusals}")
    if report.get("unattributed_cycles"):
        lines.append(
            f"  WARNING: {report['unattributed_cycles']} "
            f"unattributed cycle(s)"
        )
    return "\n".join(lines)
