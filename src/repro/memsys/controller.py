"""The memory controller: queues, phase policy, issue loop, completions.

One controller owns one channel's banks and buses.  Per memory cycle it:

1. delivers data for transfers that completed at or before ``now``,
2. decides the read/write phase — reads normally; writes while the write
   queue is draining (watermark hysteresis) or when no reads are queued,
3. fills up to ``issue_width`` command slots with the scheduler's best
   issuable candidates.

The FgNVM "Backgrounded Writes" behaviour needs no special-casing here:
during a drain, writes saturate at most one (SAG, CD) per bank per write;
once no further write is issuable this cycle, leftover command slots fall
through to reads, which the FgNVM bank accepts in any non-conflicting
tile.  On the baseline bank the same fall-through finds every bank
blocked, reproducing the read/write interference the paper attacks.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..config.params import SystemConfig
from ..errors import SimulationError
from ..obs.events import (
    EV_COMPLETE,
    EV_DRAIN,
    EV_ENQUEUE,
    EV_ISSUE,
    EV_QUEUE_STALL,
    NULL_PROBE,
    Event,
    Probe,
)
from ..obs.trace import (
    BLAME_DRAIN,
    BLAME_SCHED,
    BLAME_WRITE_CAP,
    RequestSpan,
    emit_span,
)
from .address import AddressMapper
from .bank_baseline import build_banks
from .bus import CommandBus, DataBus
from .policies import resolve_scheduler
from .queues import TransactionQueue, WriteQueue
from .request import MemRequest, OpType
from .scheduler import Candidate
from .stats import StatsCollector

#: Quiet-cycle sentinel: "no issuable work until something enqueues".
_FAR_FUTURE = 1 << 62


def _min_constraint(lookup, reqs) -> Optional[int]:
    """Min bank constraint over ``reqs`` (None when there are none)."""
    min_c: Optional[int] = None
    for req in reqs:
        constraint = lookup(req)[1]
        if min_c is None or constraint < min_c:
            min_c = constraint
    return min_c


class MemoryController:
    """Cycle-level controller for one channel."""

    def __init__(self, config: SystemConfig, stats: StatsCollector,
                 mapper: "AddressMapper | None" = None,
                 channel: int = 0, probe: Probe = NULL_PROBE):
        self.config = config
        self.stats = stats
        self.channel = channel
        self.probe = probe
        #: The probe's request tracer, read once (None: not tracing).
        self.tracer = probe.tracer
        self.timing = config.timing.cycles()
        self.mapper = mapper if mapper is not None else AddressMapper(
            config.org
        )
        self.banks = build_banks(config.org, self.timing, stats,
                                 reliability=config.reliability)
        for bank in self.banks:
            bank.probe = probe
            bank.channel = channel
        if config.controller.close_page:
            for bank in self.banks:
                bank.close_page = True
        self.scheduler = resolve_scheduler(config.controller)
        self.read_queue = TransactionQueue(
            config.controller.read_queue_entries
        )
        self.write_queue = WriteQueue(
            config.controller.write_queue_entries,
            config.controller.write_high_watermark,
            config.controller.write_low_watermark,
        )
        self.command_bus = CommandBus(config.controller.issue_width)
        self.data_bus = DataBus(
            config.controller.data_bus_width, self.timing.tburst
        )
        #: Min-heap of future controller events keyed by cycle: data-bus
        #: transfer completions for reads and forwarded hits, write-pulse
        #: ends for writes — everything that leaves the queues but is not
        #: yet done.
        self._completions: List[Tuple[int, int, MemRequest]] = []
        self._flush_mode = False
        self._was_draining = False
        self.forwarded_reads = 0
        self._write_cap = config.controller.max_writes_per_bank
        #: First cycle the issue phase could find work again.  Installed
        #: after a pass that issued nothing (so queue occupancy — hence
        #: the drain phase and fall-through policy — cannot have
        #: changed), and reset by anything that can create issuable
        #: work: enqueue, issue, flush.  A bank held by the write
        #: throttle counts as blocked until its
        #: :meth:`~repro.core.fgnvm_bank.FgNvmBank.write_cap_free_at`
        #: cycle.  Not installed while traced writes are queued under a
        #: throttle: the blame pass only runs on non-quiet cycles and
        #: reads the throttle at the cycle it runs on.  Traced reads
        #: need no exception: ``write_cap`` blame applies only to
        #: writes, and a drain flip is an event of its own.
        self._quiet_until = 0
        #: Min earliest-start constraint per flat bank over both queues,
        #: and the min over those (the O(pending) part of the event
        #: horizon): ``_bank_raw`` from the bank constraints alone,
        #: ``_bank_min`` with every write also held to its bank's
        #: write-cap release.  Enqueue and issue mark only their own
        #: bank dirty; the next horizon query rescans just those.
        self._bank_raw: "dict[int, int]" = {}
        self._bank_min: "dict[int, int]" = {}
        self._dirty_banks: "set[int]" = set()
        self._min_raw: Optional[int] = None
        self._min_constraint: Optional[int] = None
        #: Sampled requests still queued on this channel, awaiting
        #: blame attribution; empty whenever nothing is traced, so
        #: hot paths may guard on truthiness alone.
        self._traced: "dict[int, Tuple[MemRequest, RequestSpan]]" = {}
        #: How many of ``_traced`` are writes (see ``_quiet_until``).
        self._traced_writes = 0

    # -- admission ----------------------------------------------------------

    def can_accept(self, op: OpType, address: int = 0, now: int = 0) -> bool:
        """Admission attempt (``address`` accepted for facade parity).

        A refusal is a queue-full *event*: it is counted in the stats
        and published on the event bus.  Pure capacity polls (event
        skipping, schedulers) must use :meth:`has_space` instead.
        """
        if self.has_space(op):
            return True
        if op is OpType.READ:
            self.stats.read_queue_full_events += 1
            depth = len(self.read_queue)
        else:
            self.stats.write_queue_full_events += 1
            depth = len(self.write_queue)
        if self.probe.enabled:
            self.probe.emit(Event(
                EV_QUEUE_STALL, now, op=op.value, channel=self.channel,
                value=depth,
            ))
        if self.tracer is not None:
            self.tracer.on_queue_full(op.value)
        return False

    def has_space(self, op: OpType, address: int = 0) -> bool:
        """Side-effect-free queue-space check."""
        if op is OpType.READ:
            return not self.read_queue.is_full
        return not self.write_queue.is_full

    def enqueue(self, req: MemRequest, now: int) -> None:
        """Admit a decoded or raw request into the proper queue.

        Reads that hit a queued write are serviced by forwarding: they
        complete after a buffered-hit latency without touching a bank.
        """
        if req.decoded is None:
            req.decoded = self.mapper.decode(req.address)
        tracer = self.tracer
        span = None
        if tracer is not None:
            # The tracer's countdown spares unsampled requests a call.
            if tracer.skip:
                tracer.skip -= 1
            else:
                span = tracer.on_admit(req, now)
        if self.probe.enabled:
            self.probe.emit(Event(
                EV_ENQUEUE, now, req_id=req.req_id, op=req.op.value,
                channel=self.channel, bank=req.decoded.flat_bank,
                value=len(self.read_queue if req.is_read
                          else self.write_queue),
            ))
        if req.is_read:
            if self.write_queue.forwards(req.address):
                req.mark_queued(now)
                done = now + self.timing.tcas_hit + self.timing.tburst
                req.mark_issued(now, done, "forwarded")
                self.forwarded_reads += 1
                self.stats.reads += 1
                self.stats.row_hits += 1
                if self.probe.enabled:
                    self.probe.emit(Event(
                        EV_ISSUE, now, end=done, req_id=req.req_id,
                        op=req.op.value, service="forwarded",
                        channel=self.channel, bank=req.decoded.flat_bank,
                    ))
                heapq.heappush(
                    self._completions, (done, req.req_id, req)
                )
                if span is not None:
                    tracer.on_forward(span, now, done)
                return
            self.read_queue.push(req, now)
        else:
            self.write_queue.push(req, now)
            if span is not None:
                self._traced_writes += 1
        if span is not None:
            self._traced[req.req_id] = (req, span)
        self._quiet_until = 0
        self._dirty_banks.add(req.decoded.flat_bank)

    # -- per-cycle operation --------------------------------------------------

    def tick(self, now: int) -> List[MemRequest]:
        """Advance one cycle: complete transfers, then issue commands."""
        completed = self._pop_completions(now)
        self._issue_phase(now)
        return completed

    def _pop_completions(self, now: int) -> List[MemRequest]:
        done: List[MemRequest] = []
        read_latencies: List[int] = []
        while self._completions and self._completions[0][0] <= now:
            _, _, req = heapq.heappop(self._completions)
            req.mark_completed()
            if req.is_read:
                read_latencies.append(req.latency)
            if self.probe.enabled:
                self.probe.emit(Event(
                    EV_COMPLETE, now, req_id=req.req_id, op=req.op.value,
                    service=req.service_kind, channel=self.channel,
                    value=req.latency,
                ))
            tracer = self.tracer
            if tracer is not None and req.req_id in tracer.active:
                span = tracer.finish(req)
                if self.probe.enabled:
                    emit_span(self.probe, span)
            done.append(req)
        if read_latencies:
            self.stats.count_read_latency_batch(read_latencies)
        return done

    def _issue_phase(self, now: int) -> None:
        draining = self.write_queue.draining or self._flush_mode
        if draining != self._was_draining:
            self._was_draining = draining
            if self.probe.enabled:
                self.probe.emit(Event(
                    EV_DRAIN, now, op="W", channel=self.channel,
                    value=1 if draining else 0,
                ))
        if now < self._quiet_until:
            # A previous pass proved no candidate can become issuable
            # before this cycle, and nothing has changed since.
            return
        if self._traced:
            # Close traced requests' waiting intervals *before* this
            # pass can issue anything: bank state still describes the
            # interval being attributed, and a request issued below
            # then starts its service segment at exactly ``now``.
            self._blame_pass(now, draining)
        # The live scheduler decides (tests swap it): oracles and other
        # non-incremental policies keep the seed's exhaustive scans.
        if not self.scheduler.incremental:
            for _ in range(self.config.controller.issue_width):
                candidate = self._next_candidate(now, draining)
                if candidate is None:
                    break
                if not self.command_bus.acquire(now):
                    break
                self._issue(candidate, now)
            return
        issued = False
        starved = False
        blocked_min: Optional[int] = None
        for _ in range(self.config.controller.issue_width):
            candidate, blocked_min = self._next_candidate_fast(now, draining)
            if candidate is None:
                break
            if not self.command_bus.acquire(now):
                # A candidate exists but the bus refused the slot (only
                # reachable when tick runs twice in one cycle) — not a
                # provably quiet state.
                starved = True
                break
            self._issue(candidate, now)
            issued = True
        if not issued and not starved and not (
                self._traced_writes and self._write_cap is not None):
            # Nothing issued, so queue occupancy (and with it the drain
            # phase and fall-through policy) is frozen until the next
            # enqueue/issue/flush — each of which resets the memo.  With
            # empty queues nothing can wake the issue phase but those
            # same events, so the memo is effectively "forever".
            self._quiet_until = (
                blocked_min if blocked_min is not None else _FAR_FUTURE
            )

    def _blame_pass(self, now: int, draining: bool) -> None:
        """Backward blame attribution for every traced queued request.

        For each sampled request the interval since its last
        observation splits at the bank's now-independent earliest-start
        constraint: below it the binding bank resource is to blame
        (:meth:`FgNvmBank.stall_blame`); at or above it the request was
        issuable, so the wait belongs to the controller — the write
        throttle, the read/write phase policy, or plain scheduler
        ordering / issue-slot contention.
        """
        tracer = self.tracer
        banks = self.banks
        cap = self._write_cap
        eager = self.config.controller.eager_writes
        for req, span in self._traced.values():
            if span.last >= now:
                continue
            bank = banks[req.decoded.flat_bank]
            _, constraint, bank_cause = bank.stall_blame(req)
            if req.op is OpType.READ:
                policy_cause = BLAME_DRAIN if draining else BLAME_SCHED
            elif cap is not None and bank.active_writes(now) >= cap:
                policy_cause = BLAME_WRITE_CAP
            elif not draining and not eager \
                    and not self.read_queue.is_empty:
                policy_cause = BLAME_DRAIN
            else:
                policy_cause = BLAME_SCHED
            tracer.on_wait(span, now, constraint, bank_cause, policy_cause)

    def _next_candidate(self, now: int, draining: bool
                        ) -> Optional[Candidate]:
        """Best issuable request under the current phase policy."""
        first, second = (
            (self.write_queue, self.read_queue) if draining
            else (self.read_queue, self.write_queue)
        )
        primary = self.scheduler.pick(self._candidates(first, now), now)
        if primary is not None:
            return primary
        # Fall through to the other class: reads sneak under a drain when
        # no write is issuable; writes trickle out when no read can go —
        # always under the eager Backgrounded-Writes policy, otherwise
        # only once the read queue is empty.
        if draining or self.config.controller.eager_writes or first.is_empty:
            return self.scheduler.pick(self._candidates(second, now), now)
        return None

    def _next_candidate_fast(
        self, now: int, draining: bool
    ) -> "Tuple[Optional[Candidate], Optional[int]]":
        """Incremental-scheduler twin of :meth:`_next_candidate`.

        Same phase policy and the same winner, but scanned through the
        per-bank queue index and the banks' memoized (kind, constraint)
        lookups; additionally reports the earliest constraint among
        blocked candidates so quiet cycles can be memoized.
        """
        first, second = (
            (self.write_queue, self.read_queue) if draining
            else (self.read_queue, self.write_queue)
        )
        candidate, blocked = self._pick_fast(first, now)
        if candidate is not None:
            return candidate, None
        if draining or self.config.controller.eager_writes or first.is_empty:
            candidate, second_blocked = self._pick_fast(second, now)
            if candidate is not None:
                return candidate, None
            if second_blocked is not None and (
                    blocked is None or second_blocked < blocked):
                blocked = second_blocked
        return None, blocked

    def _pick_fast(self, queue: TransactionQueue, now: int
                   ) -> "Tuple[Optional[Candidate], Optional[int]]":
        by_bank = queue.by_bank()
        if not by_bank:
            return None, None
        banks = self.banks
        candidates: List[Candidate] = []
        cap = self._write_cap if queue is self.write_queue else None
        # A throttled bank is blocked like any candidate: until the
        # cycle its in-flight writes fall below the cap.
        capped_min: Optional[int] = None
        for flat_bank, reqs in by_bank.items():
            bank = banks[flat_bank]
            if cap is not None:
                free_at = bank.write_cap_free_at(cap)
                if free_at > now:
                    if capped_min is None or free_at < capped_min:
                        capped_min = free_at
                    continue
            for req in reqs:
                candidates.append((req, bank))
        best, blocked_min = self.scheduler.pick_with_horizon(
            candidates, now
        )
        if capped_min is not None and (
                blocked_min is None or capped_min < blocked_min):
            blocked_min = capped_min
        return best, blocked_min

    def _candidates(self, queue: TransactionQueue, now: int
                     ) -> List[Candidate]:
        if queue is self.write_queue:
            cap = self.config.controller.max_writes_per_bank
            if cap is not None:
                return [
                    (req, self.banks[req.decoded.flat_bank])
                    for req in queue
                    if self.banks[req.decoded.flat_bank].active_writes(now) < cap
                ]
        return [
            (req, self.banks[req.decoded.flat_bank]) for req in queue
        ]

    def _issue(self, candidate: Candidate, now: int) -> None:
        req, bank = candidate
        self._quiet_until = 0
        self._dirty_banks.add(req.decoded.flat_bank)
        result = bank.issue(req, now)
        # Stateful policies (RBLA) learn from what actually issued; a
        # fast policy and its forced oracle receive the identical
        # feedback stream.
        self.scheduler.note_issued(req, bank, result.kind)
        if req.is_read:
            bus_start = self.data_bus.reserve(result.bus_desired_start)
            completion = bus_start + self.timing.tburst
            req.mark_issued(now, completion, result.kind)
            self.read_queue.remove(req)
            heapq.heappush(
                self._completions, (completion, req.req_id, req)
            )
            if req.req_id in self._traced:
                _, span = self._traced.pop(req.req_id)
                self.tracer.on_issue_read(
                    span, now, result.kind,
                    result.bus_desired_start, bus_start, completion,
                )
        else:
            # Write data crosses the bus after tCWD; the cell write then
            # proceeds inside the bank.  The request is done (from the
            # system's view) when the write pulse finishes.
            self.data_bus.reserve(result.bus_desired_start)
            req.mark_issued(now, result.data_ready, result.kind)
            if self.write_queue.draining:
                self.stats.write_drain_entries += 1
            self.write_queue.remove(req)
            heapq.heappush(
                self._completions, (result.data_ready, req.req_id, req)
            )
            if req.req_id in self._traced:
                _, span = self._traced.pop(req.req_id)
                self._traced_writes -= 1
                self.tracer.on_issue_write(
                    span, now, result.kind, result.data_ready,
                    result.retry_cycles,
                )

    # -- progress queries ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests still queued or in flight."""
        return (
            len(self.read_queue) + len(self.write_queue)
            + len(self._completions)
        )

    def busy(self) -> bool:
        return self.pending > 0

    def begin_flush(self) -> None:
        """Drain every remaining write (end of simulation)."""
        self._flush_mode = True
        self._quiet_until = 0

    def next_event_after(self, now: int) -> Optional[int]:
        """Earliest future cycle at which this controller can make progress.

        Used for clock skipping: the next event on the completion heap,
        or the earliest cycle any queued request becomes issuable.  With
        the incremental scheduler the queue part is a cached minimum
        over the banks' now-independent earliest-start constraints
        (``earliest_start(req, now) == max(now, constraint)``, so
        ``min over requests of max(constraint, now + 1)`` equals
        ``max(min constraint, now + 1)``), with writes held to their
        bank's write-cap release and the whole term held to the
        quiet-cycle memo — the same facts the issue pass acts on.  The
        reference policy keeps the seed's exhaustive per-request scan
        over the raw constraints, so it visits a superset of cycles.

        A drain-phase flip is an event too: the next pass publishes
        ``EV_DRAIN``, so it runs on the very next cycle.
        """
        if (self.write_queue.draining or self._flush_mode) \
                != self._was_draining:
            return now + 1
        if not self.scheduler.incremental:
            return self._next_event_after_reference(now)
        horizon: Optional[int] = None
        if self._completions:
            horizon = self._completions[0][0]
        floor = now + 1
        if self._quiet_until > floor:
            floor = self._quiet_until
        if horizon is None or horizon > floor:
            # The queue term is at least ``floor``, so it can only come
            # first (and is only worth a rescan) past this point.
            if self._dirty_banks:
                self._recompute_min_constraint()
            # Traced writes queued under a cap are blamed on the cycle
            # the blame pass runs, so those runs keep visiting raw-ready
            # cycles (exactly when the quiet memo is not installed).
            if self._traced_writes and self._write_cap is not None:
                min_c = self._min_raw
            else:
                min_c = self._min_constraint
            if min_c is not None:
                when = min_c if min_c > floor else floor
                if horizon is None or when < horizon:
                    horizon = when
        if horizon is not None and horizon <= now:
            raise SimulationError(
                f"controller event horizon {horizon} not after now={now}"
            )
        return horizon

    def _recompute_min_constraint(self) -> None:
        """Rescan the dirty banks, then take both mins over every bank.

        A write cannot issue before its bank's
        :meth:`~repro.core.fgnvm_bank.FgNvmBank.write_cap_free_at`, a
        memoised bank-state value, and ``min_i max(c_i, k)`` is
        ``max(min_i c_i, k)``: the held minimum costs no extra scan.
        """
        bank_raw = self._bank_raw
        bank_min = self._bank_min
        reads = self.read_queue.by_bank()
        writes = self.write_queue.by_bank()
        cap = self._write_cap
        for flat_bank in self._dirty_banks:
            bank = self.banks[flat_bank]
            lookup = bank.kind_and_constraint
            raw = held = _min_constraint(lookup, writes.get(flat_bank, ()))
            if held is not None and cap is not None:
                free_at = bank.write_cap_free_at(cap)
                if free_at > held:
                    held = free_at
            read_min = _min_constraint(lookup, reads.get(flat_bank, ()))
            if read_min is not None:
                if raw is None or read_min < raw:
                    raw = read_min
                if held is None or read_min < held:
                    held = read_min
            if raw is None:
                bank_raw.pop(flat_bank, None)
                bank_min.pop(flat_bank, None)
            else:
                bank_raw[flat_bank] = raw
                bank_min[flat_bank] = held
        self._dirty_banks.clear()
        self._min_raw = min(bank_raw.values()) if bank_raw else None
        self._min_constraint = min(bank_min.values()) if bank_min else None

    def _next_event_after_reference(self, now: int) -> Optional[int]:
        horizon: Optional[int] = None
        if self._completions:
            horizon = self._completions[0][0]
        for queue in (self.read_queue, self.write_queue):
            for req in queue:
                start = self.banks[req.decoded.flat_bank].earliest_start(
                    req, now
                )
                when = max(start, now + 1)
                if horizon is None or when < horizon:
                    horizon = when
        if horizon is not None and horizon <= now:
            raise SimulationError(
                f"controller event horizon {horizon} not after now={now}"
            )
        return horizon
